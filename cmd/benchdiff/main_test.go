package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: thermalsched
BenchmarkHotSpotSteadyState-8        	 7654321	       160 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerPolicies/thermal-8 	   16713	     69042 ns/op	   15696 B/op	     102 allocs/op
BenchmarkSchedulerPolicies/baseline-8	   36000	     90000.5 ns/op
PASS
ok  	thermalsched	12.3s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkHotSpotSteadyState":         160,
		"BenchmarkSchedulerPolicies/thermal":  69042,
		"BenchmarkSchedulerPolicies/baseline": 90000.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %g ns/op, want %g", name, got[name], ns)
		}
	}
}

func TestParseBenchKeepsBestOfRepeats(t *testing.T) {
	in := "BenchmarkX-8 10 200 ns/op\nBenchmarkX-8 10 150 ns/op\nBenchmarkX-8 10 180 ns/op\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"] != 150 {
		t.Errorf("BenchmarkX = %g, want the best run 150", got["BenchmarkX"])
	}
}

func testBaseline(t *testing.T) *baseline {
	t.Helper()
	blob := `{
		"benchmarks": {
			"BenchmarkHotSpotSteadyState": {"after": {"ns_op": 156}},
			"BenchmarkSchedulerPolicies/thermal": {"after": {"ns_op": 69000}},
			"BenchmarkGone": {"after": {"ns_op": 100}},
			"BenchmarkNoteOnly": {"note": "no after block"}
		}
	}`
	var base baseline
	if err := json.Unmarshal([]byte(blob), &base); err != nil {
		t.Fatal(err)
	}
	return &base
}

func TestCompare(t *testing.T) {
	got := map[string]float64{
		"BenchmarkHotSpotSteadyState":        200,   // +28% → regressed at 10%
		"BenchmarkSchedulerPolicies/thermal": 70000, // +1.4% → within tolerance
	}
	results := compare(testBaseline(t), got, 0.10)
	if len(results) != 3 {
		t.Fatalf("compared %d benchmarks, want 3 (note-only entries skipped): %+v", len(results), results)
	}
	byName := map[string]result{}
	for _, r := range results {
		byName[r.name] = r
	}
	if r := byName["BenchmarkHotSpotSteadyState"]; !r.regressed {
		t.Errorf("28%% growth not flagged: %+v", r)
	}
	if r := byName["BenchmarkSchedulerPolicies/thermal"]; r.regressed {
		t.Errorf("1.4%% growth flagged at 10%% tolerance: %+v", r)
	}
	if r := byName["BenchmarkGone"]; !r.missing {
		t.Errorf("absent benchmark not marked missing: %+v", r)
	}
}

// Every shipped baseline file must parse and carry comparable hot
// paths, so the nightly workflow cannot silently diff against nothing.
func TestShippedBaselineParses(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json baseline at the repository root")
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var base baseline
		if err := json.Unmarshal(blob, &base); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		results := compare(&base, map[string]float64{}, 0.10)
		if len(results) == 0 {
			t.Errorf("%s carries no comparable benchmark", path)
		}
		for _, r := range results {
			if !r.missing {
				t.Errorf("%s: empty input produced non-missing result %+v", path, r)
			}
		}
	}
}

// -baseline repeats: every file is compared against the same bench
// output, and regressions are counted over all of them.
func TestRunRepeatedBaselines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	first := write("BENCH_A.json", `{"benchmarks": {"BenchmarkHotSpotSteadyState": {"after": {"ns_op": 100}}}}`)
	second := write("BENCH_B.json", `{"benchmarks": {
		"BenchmarkSchedulerPolicies/thermal": {"after": {"ns_op": 60000}},
		"BenchmarkSchedulerPolicies/baseline": {"after": {"ns_op": 90000}}
	}}`)
	bench := write("bench.txt", sampleBench)

	var out strings.Builder
	if err := run([]string{"-baseline", first, "-baseline", second, bench}, &out); err != nil {
		t.Fatalf("regressions failed a run without -strict: %v", err)
	}
	// 160 vs 100 and 69042 vs 60000 regress at 10%; 90000.5 vs 90000
	// does not.
	err := run([]string{"-baseline", first, "-baseline", second, "-strict", bench}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2 benchmark(s) regressed") {
		t.Errorf("-strict error = %v, want 2 regressions (one per baseline)", err)
	}
	for _, want := range []string{
		"BenchmarkHotSpotSteadyState regressed",
		"BenchmarkSchedulerPolicies/thermal regressed",
		"BenchmarkSchedulerPolicies/baseline ok",
		"regressed beyond 10% of " + first,
		"regressed beyond 10% of " + second,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	if err := run([]string{"-baseline", first, "-baseline", filepath.Join(dir, "missing.json"), bench}, io.Discard); err == nil {
		t.Error("a missing second baseline was accepted")
	}
}
