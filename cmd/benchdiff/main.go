// Command benchdiff compares `go test -bench` output against the
// repository's checked-in BENCH_*.json baselines and reports
// regressions of the recorded hot paths. It is the nightly benchmark
// workflow's gatekeeper: benchmarks that regress more than the
// tolerance emit GitHub Actions warning annotations (or fail the run
// with -strict). -baseline repeats; each file is compared in turn.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | tee bench.txt
//	benchdiff -baseline BENCH_2.json bench.txt
//	benchdiff -baseline BENCH_2.json -baseline BENCH_3.json -tolerance 0.10 -strict bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baseline mirrors the BENCH_*.json schema: benchmark name to the
// recorded operation cost. Entries without an "after" block (notes,
// ablations) are skipped.
type baseline struct {
	Description string                    `json:"description"`
	Benchmarks  map[string]*baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	After *struct {
		NsOp float64 `json:"ns_op"`
	} `json:"after"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSchedulerPolicies/thermal-8   16713   69042 ns/op   15696 B/op   102 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so names match the
// baseline keys.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench extracts name → ns/op from bench output. Duplicate names
// (e.g. -count > 1) keep the best run, matching benchstat's
// noise-resistant reading.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := out[m[1]]; !ok || ns < prev {
			out[m[1]] = ns
		}
	}
	return out, sc.Err()
}

// result is one compared benchmark.
type result struct {
	name               string
	baseNs, gotNs      float64
	ratio              float64 // gotNs / baseNs
	regressed, missing bool
}

// compare evaluates the bench results against the baseline's recorded
// hot paths.
func compare(base *baseline, got map[string]float64, tolerance float64) []result {
	var out []result
	for name, entry := range base.Benchmarks {
		if entry == nil || entry.After == nil || entry.After.NsOp <= 0 {
			continue // annotation-only entries carry no comparable number
		}
		r := result{name: name, baseNs: entry.After.NsOp}
		ns, ok := got[name]
		if !ok {
			r.missing = true
		} else {
			r.gotNs = ns
			r.ratio = ns / r.baseNs
			r.regressed = r.ratio > 1+tolerance
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// baselinePaths collects the repeated -baseline flag.
type baselinePaths []string

func (b *baselinePaths) String() string { return strings.Join(*b, ",") }

func (b *baselinePaths) Set(path string) error {
	*b = append(*b, path)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, compares the bench output against every baseline
// and writes the report to w. Regressions are an error only under
// -strict.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	var paths baselinePaths
	fs.Var(&paths, "baseline", "baseline JSON file (repeatable; default BENCH_2.json)")
	tolerance := fs.Float64("tolerance", 0.10, "allowed ns/op growth before a benchmark counts as regressed")
	strict := fs.Bool("strict", false, "exit non-zero on regressions instead of warning")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(paths) == 0 {
		paths = baselinePaths{"BENCH_2.json"}
	}
	bases := make([]*baseline, len(paths))
	for i, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		bases[i] = new(baseline)
		if err := json.Unmarshal(blob, bases[i]); err != nil {
			return fmt.Errorf("benchdiff: parsing %s: %w", path, err)
		}
	}

	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("benchdiff: no benchmark lines in input")
	}

	regressions := 0
	for i, path := range paths {
		n := 0
		for _, r := range compare(bases[i], got, *tolerance) {
			switch {
			case r.missing:
				fmt.Fprintf(w, "::warning::benchdiff: %s is in %s but did not run\n", r.name, path)
			case r.regressed:
				n++
				fmt.Fprintf(w, "::warning::benchdiff: %s regressed %.0f%%: %.0f ns/op vs baseline %.0f ns/op\n",
					r.name, 100*(r.ratio-1), r.gotNs, r.baseNs)
			default:
				fmt.Fprintf(w, "benchdiff: %s ok: %.0f ns/op vs baseline %.0f ns/op (%.2fx)\n",
					r.name, r.gotNs, r.baseNs, r.ratio)
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "benchdiff: %d benchmark(s) regressed beyond %.0f%% of %s\n",
				n, 100**tolerance, path)
		}
		regressions += n
	}
	if regressions > 0 && *strict {
		return fmt.Errorf("benchdiff: %d benchmark(s) regressed", regressions)
	}
	return nil
}
