// Package hotspot implements a block-level compact thermal RC model in
// the style of HotSpot (Skadron, Abdelzaher, Stan — HPCA 2002), the tool
// the paper uses for temperature extraction.
//
// Given a floorplan and per-block power dissipation, the model builds a
// thermal network with one node per block plus lumped heat-spreader and
// heat-sink nodes:
//
//   - lateral conductances couple abutting blocks through the silicon
//     (proportional to shared edge length, inversely to centre distance);
//   - each block has a vertical path through the die and the thermal
//     interface to the spreader;
//   - the spreader connects to the sink, and the sink convects to ambient.
//
// Temperatures are solved relative to ambient, so zero power always gives
// ambient everywhere. The conductance matrix is symmetric positive
// definite by construction; steady state solves use a cached Cholesky
// factorization so a scheduler can issue thousands of thermal inquiries
// cheaply, which the paper's thermal-aware ASP does at every assignment.
package hotspot

import "fmt"

// Config holds the physical and package parameters of the thermal model.
// All values use SI units except AmbientC (degrees Celsius).
type Config struct {
	// SiliconConductivity is the thermal conductivity of the die, W/(m·K).
	SiliconConductivity float64
	// DieThickness is the silicon die thickness, m.
	DieThickness float64
	// SiliconVolumetricHeat is the volumetric heat capacity of silicon,
	// J/(m³·K). Used only by the transient solver.
	SiliconVolumetricHeat float64
	// InterfaceResistivity is the specific thermal resistance of the
	// die-to-spreader path (thermal interface material plus spreading),
	// K·m²/W. Divided by block area to obtain each block's vertical
	// resistance.
	InterfaceResistivity float64
	// SpreaderConductivity and SpreaderThickness describe the copper
	// heat spreader. Each block owns a spreader region; adjacent regions
	// couple laterally through the copper, the dominant lateral heat
	// path (and the reason centre blocks run hotter than edge blocks).
	SpreaderConductivity float64 // W/(m·K)
	SpreaderThickness    float64 // m
	// SpreaderVolumetricHeat is the volumetric heat capacity of the
	// spreader, J/(m³·K) (transient solver only).
	SpreaderVolumetricHeat float64
	// SpreaderToSinkResistance is the total spreader→sink resistance,
	// K/W, apportioned to the per-block spreader regions by area.
	SpreaderToSinkResistance float64
	// SpreaderRingWidth is the width of the peripheral spreader ring —
	// the copper extending beyond the die edge, m. Blocks on the die
	// boundary couple into the ring through their exposed perimeter and
	// so escape heat more easily than centre blocks. Without the ring,
	// every block in this network topology has an identical thermal
	// column sum and the die-average temperature degenerates to a pure
	// function of total power, blinding average-temperature-driven
	// placement to spatial distribution.
	SpreaderRingWidth float64
	// ConvectionResistance is the sink→ambient convection resistance, K/W.
	// This sets the overall operating point: total power × this resistance
	// is the sink's temperature rise.
	ConvectionResistance float64
	// SinkHeatCapacity is the lumped heat-sink capacity, J/K
	// (transient solver only).
	SinkHeatCapacity float64
	// AmbientC is the ambient temperature in °C.
	AmbientC float64
	// Solver selects the steady-state solver backend. Both factor the
	// conductance matrix with sparse Cholesky. SolverDense (the golden
	// reference; also the default when empty) factors in natural order
	// and answers inquiries from the full n×n influence matrix.
	// SolverSparse factors under a min-degree order and solves and
	// caches influence rows on demand — the large-platform backend.
	// Both backends are deterministic; sparse agrees with dense to
	// ≤1e-6 K on the paper's benchmarks.
	Solver string
}

// Solver backend names accepted by Config.Solver.
const (
	SolverDense  = "dense"
	SolverSparse = "sparse"
)

// SolverNames returns the accepted solver backend names, for CLI help
// strings and validation messages.
func SolverNames() []string { return []string{SolverDense, SolverSparse} }

// SolverKind returns the effective solver backend: Solver, with the
// empty string normalized to SolverDense. Cache keys and reports use
// this form so "" and "dense" never alias to different entries.
func (c Config) SolverKind() string {
	if c.Solver == "" {
		return SolverDense
	}
	return c.Solver
}

// DefaultConfig returns the calibration used throughout the reproduction.
// The package parameters (interface resistivity, convection resistance)
// are tuned so that the benchmark power levels reported in the paper
// (roughly 6–45 W across a handful of PEs) produce peak temperatures in
// the 65–125 °C band the paper's tables show, over a 45 °C ambient.
func DefaultConfig() Config {
	return Config{
		SiliconConductivity:      100.0,   // W/(m·K)
		DieThickness:             0.5e-3,  // 0.5 mm
		SiliconVolumetricHeat:    1.75e6,  // J/(m³·K)
		InterfaceResistivity:     1.2e-4,  // K·m²/W
		SpreaderConductivity:     400.0,   // W/(m·K), copper
		SpreaderThickness:        1.0e-3,  // 1 mm
		SpreaderVolumetricHeat:   3.5e6,   // J/(m³·K)
		SpreaderToSinkResistance: 0.5,     // K/W
		SpreaderRingWidth:        10.0e-3, // 10 mm of copper beyond the die edge
		ConvectionResistance:     1.1,     // K/W
		SinkHeatCapacity:         300.0,   // J/K
		AmbientC:                 45.0,
	}
}

// Validate reports the first implausible parameter.
func (c Config) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"SiliconConductivity", c.SiliconConductivity},
		{"DieThickness", c.DieThickness},
		{"SiliconVolumetricHeat", c.SiliconVolumetricHeat},
		{"InterfaceResistivity", c.InterfaceResistivity},
		{"SpreaderConductivity", c.SpreaderConductivity},
		{"SpreaderThickness", c.SpreaderThickness},
		{"SpreaderVolumetricHeat", c.SpreaderVolumetricHeat},
		{"SpreaderToSinkResistance", c.SpreaderToSinkResistance},
		{"SpreaderRingWidth", c.SpreaderRingWidth},
		{"ConvectionResistance", c.ConvectionResistance},
		{"SinkHeatCapacity", c.SinkHeatCapacity},
	}
	for _, ch := range checks {
		if !(ch.v > 0) {
			return fmt.Errorf("hotspot: %s must be positive, got %g", ch.name, ch.v)
		}
	}
	if c.AmbientC < -273.15 {
		return fmt.Errorf("hotspot: ambient %g °C below absolute zero", c.AmbientC)
	}
	switch c.Solver {
	case "", SolverDense, SolverSparse:
	default:
		return fmt.Errorf("hotspot: unknown solver %q (want one of %v)", c.Solver, SolverNames())
	}
	return nil
}
