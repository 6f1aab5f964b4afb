package sched

import (
	"fmt"
	"strings"
)

// Policy selects the ASP variant: how the dynamic criticality's last term
// (the paper's "Pow" / "Avg_Temp") is computed.
type Policy int

// ASP variants from the paper, §2.
const (
	// Baseline ignores power and temperature entirely (traditional ASP).
	Baseline Policy = iota
	// MinTaskPower is power heuristic 1: minimize the power consumption
	// of the current task on the candidate PE.
	MinTaskPower
	// MinPEPower is power heuristic 2: minimize the cumulative average
	// power of the candidate processing element.
	MinPEPower
	// MinTaskEnergy is power heuristic 3: minimize the energy of the
	// current task (WCET × WCPC) — the winner among the paper's power
	// heuristics.
	MinTaskEnergy
	// ThermalAware substitutes the average temperature returned by the
	// thermal model for the Pow term (the paper's contribution).
	ThermalAware
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Baseline:
		return "baseline"
	case MinTaskPower:
		return "heuristic1"
	case MinPEPower:
		return "heuristic2"
	case MinTaskEnergy:
		return "heuristic3"
	case ThermalAware:
		return "thermal"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a name (as printed by String) back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "baseline":
		return Baseline, nil
	case "heuristic1", "h1", "minpower":
		return MinTaskPower, nil
	case "heuristic2", "h2", "minpepower":
		return MinPEPower, nil
	case "heuristic3", "h3", "minenergy":
		return MinTaskEnergy, nil
	case "thermal", "thermalaware", "thermal-aware":
		return ThermalAware, nil
	default:
		return 0, fmt.Errorf("sched: unknown policy %q", s)
	}
}

// Policies lists all ASP variants in paper order.
func Policies() []Policy {
	return []Policy{Baseline, MinTaskPower, MinPEPower, MinTaskEnergy, ThermalAware}
}

// ThermalOracle answers the thermal-aware ASP's temperature inquiries
// incrementally: between the PE candidates of one scheduling step only
// a single coordinate of the inquiry power vector changes (the
// candidate PE gains the task's power), so each step fixes the common
// per-PE power vector (W, indexed like the architecture's PE list)
// once and every candidate is a delta on it. The cosynth layer backs
// this with the HotSpot-style model; tests may use fakes.
// Implementations need not be safe for concurrent use.
type ThermalOracle interface {
	// SetBase fixes the base per-PE power vector subsequent
	// AvgTempDelta calls build on. The slice is copied.
	SetBase(pePower []float64) error
	// AvgTempDelta returns the average block temperature in °C under
	// the base vector with deltaW watts added to PE pe. deltaW must be
	// non-negative and finite.
	AvgTempDelta(pe int, deltaW float64) (float64, error)
}

// Config tunes the ASP. The weight fields convert the heterogeneous
// units of the DC equation's last term into schedule time units:
//
//	DC = SC − WCET − max(avail, ready) − weight·term
//
// The paper leaves these scales implicit; DefaultConfig's values are
// calibrated so the last term is commensurate with task WCETs for the
// standard library.
type Config struct {
	Policy Policy
	// PowerWeight scales watts into time units for heuristics 1 and 2.
	PowerWeight float64
	// EnergyWeight scales energy (W × time) into time units for
	// heuristic 3.
	EnergyWeight float64
	// TempWeight scales °C into time units for the thermal-aware ASP.
	TempWeight float64
	// ThermalHorizon is the fixed time window (in schedule time units)
	// over which accumulated energies are converted to the power vector
	// of a thermal inquiry. A fixed window keeps inquiry temperatures —
	// and therefore the effective strength of TempWeight — independent
	// of the benchmark's deadline. Zero means DefaultThermalHorizon.
	ThermalHorizon float64
	// Oracle must be non-nil when Policy == ThermalAware.
	Oracle ThermalOracle
}

// DefaultThermalHorizon is the default power-accumulation window for
// thermal inquiries, sized to the standard library's task scale.
const DefaultThermalHorizon = 1000

// DefaultConfig returns the calibrated configuration for a policy.
// ThermalAware configs still need the Oracle to be set by the caller.
func DefaultConfig(p Policy) Config {
	return Config{
		Policy:         p,
		PowerWeight:    20.0, // ~6 W tasks → ~120 time units, the WCET scale
		EnergyWeight:   0.3,  // ~600 energy-unit tasks → ~180 time units
		TempWeight:     10.0, // ~°C-scale inquiry deltas → WCET-scale DC terms
		ThermalHorizon: DefaultThermalHorizon,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch c.Policy {
	case Baseline, MinTaskPower, MinPEPower, MinTaskEnergy:
	case ThermalAware:
		if c.Oracle == nil {
			return fmt.Errorf("sched: thermal-aware policy requires a ThermalOracle")
		}
		if c.TempWeight < 0 {
			return fmt.Errorf("sched: negative TempWeight %g", c.TempWeight)
		}
	default:
		return fmt.Errorf("sched: unknown policy %d", int(c.Policy))
	}
	if c.PowerWeight < 0 || c.EnergyWeight < 0 {
		return fmt.Errorf("sched: negative weights (power %g, energy %g)",
			c.PowerWeight, c.EnergyWeight)
	}
	return nil
}
