package lint

import (
	"testing"

	"thermalsched/internal/lint/linttest"
)

func TestMapIter(t *testing.T) {
	linttest.Run(t, "testdata", MapIterAnalyzer,
		"thermalsched/internal/hotspot", // core: triggering and idiomatic fixtures
		"thermalsched/internal/jobs",    // exempt tier: identical shapes, no findings
	)
}

func TestWallTime(t *testing.T) {
	linttest.Run(t, "testdata", WallTimeAnalyzer,
		"thermalsched/internal/runtime", // core
		"thermalsched/internal/jobs",    // exempt tier
	)
}

func TestSeedZero(t *testing.T) {
	linttest.Run(t, "testdata", SeedZeroAnalyzer, "seedfix")
}

func TestFpFields(t *testing.T) {
	linttest.Run(t, "testdata", FpFieldsAnalyzer, "fpfix")
}

// The core-package predicate is the scoping contract of mapiter and
// walltime; pin its edges.
func TestIsCorePackage(t *testing.T) {
	cases := map[string]bool{
		"thermalsched":                          true, // root: Engine, fingerprints
		"thermalsched [thermalsched.test]":      true, // vet test variant
		"thermalsched/internal/hotspot":         true,
		"thermalsched/internal/search":          true,
		"thermalsched/internal/dtm":             true,  // supervisor admissions feed the goldens
		"thermalsched/internal/jobs":            false, // wall-clock by design
		"thermalsched/internal/service":         false,
		"thermalsched/internal/linalg":          false, // order-free numeric kernels
		"thermalsched/internal/lint":            false,
		"thermalsched/cmd/thermsched":           false,
		"thermalsched/internal/hotspot/nothing": false,
		"othermodule/internal/hotspot":          false,
	}
	for path, want := range cases {
		if got := isCorePackage(path); got != want {
			t.Errorf("isCorePackage(%q) = %t, want %t", path, got, want)
		}
	}
}

func TestAnalyzersStable(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"mapiter", "seedzero", "fpfields", "walltime"} {
		if !names[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}
