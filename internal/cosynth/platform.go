package cosynth

import (
	"context"
	"fmt"
	"math"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// PlatformConfig parameterizes the platform-based flow (Fig. 1b). The
// scheduler, bus and thermal values are used as given;
// DefaultPlatformConfig holds the calibrated ones.
type PlatformConfig struct {
	// Sched is the scheduler configuration, its Policy the ASP variant;
	// the thermal oracle is wired automatically for ThermalAware.
	Sched sched.Config
	// BusTimePerUnit is the shared-bus communication rate (time units per
	// data unit).
	BusTimePerUnit float64
	// HotSpot is the thermal model configuration.
	HotSpot hotspot.Config
	// Models supplies thermal models; nil means hotspot.NewModel. The
	// Engine layer injects its factorization cache here.
	Models ModelProvider
	// Platform overrides the paper's fixed 4-PE substrate with a custom
	// platform description — generated scenarios route their
	// heterogeneous platforms here. Nil keeps the paper platform.
	Platform *PlatformDesc
}

// DefaultPlatformConfig returns the calibrated platform-flow
// configuration for a policy.
func DefaultPlatformConfig(p sched.Policy) PlatformConfig {
	return PlatformConfig{
		Sched:          sched.DefaultConfig(p),
		BusTimePerUnit: techlib.DefaultBusTimePerUnit,
		HotSpot:        hotspot.DefaultConfig(),
	}
}

// PlatformDesc describes a custom platform substrate: one PE instance
// per library type name, arranged in the named floorplan layout. PE
// instances are named pe0, pe1, … in order, and the floorplan's blocks
// carry the same names so the thermal oracle can map between them.
type PlatformDesc struct {
	// TypeNames lists the technology-library PE type of each instance.
	TypeNames []string
	// Layout is "row" (default) or "grid".
	Layout string
}

// BuildPlatformDesc constructs a platform substrate: the architecture,
// its floorplan, thermal model and oracle. A nil desc gives the paper's
// platform, the four "identical" PEs in a row floorplan; a row (not a
// 2×2 grid) is used so the platform has the edge/centre asymmetry every
// real package exhibits. A custom desc describes a generated
// scenario/stream platform. The optional model provider lets callers
// outside this package (the Engine's stream flow) share model builds
// with the offline flows, which go through the same construction.
func BuildPlatformDesc(lib *techlib.Library, busTimePerUnit float64, hsCfg hotspot.Config, models ModelProvider, desc *PlatformDesc) (sched.Architecture, *floorplan.Floorplan, *hotspot.Model, *sched.ModelOracle, error) {
	typeNames := techlib.PlatformPETypeNames()
	if desc != nil {
		typeNames = desc.TypeNames
	}
	arch, err := sched.PlatformFromTypes(lib, typeNames, busTimePerUnit)
	if err != nil {
		return sched.Architecture{}, nil, nil, nil, err
	}
	fp, err := platformFloorplan(lib, arch, desc)
	if err != nil {
		return sched.Architecture{}, nil, nil, nil, err
	}
	model, err := models.newModel(fp, hsCfg)
	if err != nil {
		return sched.Architecture{}, nil, nil, nil, err
	}
	oracle, err := sched.NewModelOracle(model, arch)
	if err != nil {
		return sched.Architecture{}, nil, nil, nil, err
	}
	return arch, fp, model, oracle, nil
}

// platformFloorplan lays the platform's PEs out on the die. The paper
// platform (nil desc) keeps its historical row of identical blocks; a
// custom platform uses per-PE areas from the library, in a row or a
// near-square grid.
func platformFloorplan(lib *techlib.Library, arch sched.Architecture, desc *PlatformDesc) (*floorplan.Floorplan, error) {
	if desc == nil {
		area := lib.PEType(arch.PEs[0].Type).Area
		return floorplan.Row("pe", len(arch.PEs), area)
	}
	areas := make([]float64, len(arch.PEs))
	for i, pe := range arch.PEs {
		areas[i] = lib.PEType(pe.Type).Area
	}
	if desc.Layout == "grid" {
		return floorplan.GridOf(arch.PENames(), areas)
	}
	return floorplan.RowOf(arch.PENames(), areas)
}

// RunPlatform executes the platform-based flow: schedule g on the fixed
// 4-PE platform under the configured policy and extract the final
// temperature profile. ctx is threaded into the ASP's greedy loop.
func RunPlatform(ctx context.Context, g *taskgraph.Graph, lib *techlib.Library, cfg PlatformConfig) (*Result, error) {
	arch, fp, model, oracle, err := BuildPlatformDesc(lib, cfg.BusTimePerUnit, cfg.HotSpot, cfg.Models, cfg.Platform)
	if err != nil {
		return nil, err
	}
	sc := cfg.Sched
	if sc.Policy == sched.ThermalAware {
		sc.Oracle = oracle
	}
	s, err := sched.AllocateAndSchedule(ctx, g, arch, lib, sc)
	if err != nil {
		return nil, fmt.Errorf("cosynth: platform schedule: %w", err)
	}
	res, err := computeMetrics(s, fp, model, oracle)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(res.Metrics.MaxTemp) {
		return nil, fmt.Errorf("cosynth: platform produced NaN temperature")
	}
	return res, nil
}
