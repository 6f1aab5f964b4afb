package floorplan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// planText renders a floorplan for byte-level comparison.
func planText(t *testing.T, fp *Floorplan) string {
	t.Helper()
	var b strings.Builder
	if err := fp.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// resultKey captures everything observable about a search result,
// including the memo accounting, for byte-identity comparisons.
func resultKey(t *testing.T, r *Result) string {
	t.Helper()
	return fmt.Sprintf("cost=%.17g area=%.17g peak=%.17g evals=%d hits=%d plan=%q",
		r.Cost, r.Area, r.PeakTemp, r.Evals, r.MemoHits, planText(t, r.Plan))
}

// The property the parallel search backbone guarantees: for every
// parallelism level, seed, population size and objective, the GA
// returns a byte-identical Result (plan geometry, cost, and memo
// accounting) to the serial search.
func TestRunGAParallelMatchesSerial(t *testing.T) {
	levels := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, n := range []int{5, 8} {
		blocks := flexBlocks(n, 1e-6)
		for _, seed := range []int64{0, 1, 42} {
			for _, popSize := range []int{6, 20} {
				for _, thermal := range []bool{false, true} {
					base := DefaultGAConfig()
					base.PopulationSize = popSize
					base.Generations = 8
					base.Seed = seed
					if thermal {
						base.Eval = tallPenaltyEval
						base.Power = map[string]float64{}
					} else {
						base.TempWeight = 0
					}
					serialCfg := base
					serialCfg.Parallelism = 1
					serial, err := RunGA(context.Background(), blocks, serialCfg)
					if err != nil {
						t.Fatal(err)
					}
					want := resultKey(t, serial)
					for _, p := range levels {
						cfg := base
						cfg.Parallelism = p
						got, err := RunGA(context.Background(), blocks, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if gotKey := resultKey(t, got); gotKey != want {
							t.Errorf("n=%d seed=%d pop=%d thermal=%v P=%d diverged:\n got %s\nwant %s",
								n, seed, popSize, thermal, p, gotKey, want)
						}
					}
				}
			}
		}
	}
}

// The same property for the annealer: the speculative-batch trajectory
// is a function of the seed alone, never of the parallelism level.
func TestRunSAParallelMatchesSerial(t *testing.T) {
	levels := []int{2, 4, runtime.GOMAXPROCS(0)}
	blocks := flexBlocks(6, 1e-6)
	for _, seed := range []int64{0, 3, 11} {
		for _, thermal := range []bool{false, true} {
			base := DefaultSAConfig()
			base.Seed = seed
			if thermal {
				base.Eval = tallPenaltyEval
				base.Power = map[string]float64{}
			} else {
				base.TempWeight = 0
			}
			serialCfg := base
			serialCfg.Parallelism = 1
			serial, err := RunSA(context.Background(), blocks, serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			want := resultKey(t, serial)
			for _, p := range levels {
				cfg := base
				cfg.Parallelism = p
				got, err := RunSA(context.Background(), blocks, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if gotKey := resultKey(t, got); gotKey != want {
					t.Errorf("seed=%d thermal=%v P=%d diverged:\n got %s\nwant %s",
						seed, thermal, p, gotKey, want)
				}
			}
		}
	}
}

// Under the thermal objective the seed expression must be packed and
// solved exactly once — its evaluation both sets the temperature scale
// and scores it — and every solve must be counted in Result.Evals:
// the number of Eval calls equals Evals exactly, and Evals + MemoHits
// accounts for every candidate the search scored.
func TestRunGASeedEvaluatedOnceAndEvalsCounted(t *testing.T) {
	blocks := flexBlocks(5, 1e-6)
	calls := 0
	cfg := DefaultGAConfig()
	cfg.PopulationSize = 10
	cfg.Generations = 6
	cfg.Eval = func(fp *Floorplan, pw map[string]float64) (float64, error) {
		calls++
		return tallPenaltyEval(fp, pw)
	}
	cfg.Power = map[string]float64{}
	res, err := RunGA(context.Background(), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Evals {
		t.Errorf("thermal evaluator ran %d times but Evals = %d (seed double-evaluated or memo miscounted)",
			calls, res.Evals)
	}
	// Scored candidates: the seed, PopulationSize-1 initial mutants, and
	// PopulationSize-Elitism children per generation.
	scored := 1 + (cfg.PopulationSize - 1) + cfg.Generations*(cfg.PopulationSize-cfg.Elitism)
	if res.Evals+res.MemoHits != scored {
		t.Errorf("Evals (%d) + MemoHits (%d) = %d, want %d scored candidates",
			res.Evals, res.MemoHits, res.Evals+res.MemoHits, scored)
	}
	if res.MemoHits == 0 {
		t.Error("a converging 6-generation GA revisited no genome; memo appears dead")
	}
}

// The annealer shares the single-seed-evaluation contract.
func TestRunSASeedEvaluatedOnceAndEvalsCounted(t *testing.T) {
	blocks := flexBlocks(4, 1e-6)
	calls := 0
	cfg := DefaultSAConfig()
	cfg.MovesPerT = 10
	cfg.MinTemp = 0.2
	cfg.Eval = func(fp *Floorplan, pw map[string]float64) (float64, error) {
		calls++
		return tallPenaltyEval(fp, pw)
	}
	cfg.Power = map[string]float64{}
	res, err := RunSA(context.Background(), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Evals {
		t.Errorf("thermal evaluator ran %d times but Evals = %d", calls, res.Evals)
	}
}

func TestRunSACancellation(t *testing.T) {
	blocks := flexBlocks(6, 1e-6)
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	cfg := DefaultSAConfig()
	cfg.Eval = func(fp *Floorplan, pw map[string]float64) (float64, error) {
		evals++
		if evals == 5 {
			cancel()
		}
		return tallPenaltyEval(fp, pw)
	}
	cfg.Power = map[string]float64{}
	_, err := RunSA(ctx, blocks, cfg)
	if err == nil {
		t.Fatal("cancelled SA returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if evals > 50 {
		t.Errorf("SA kept evaluating (%d evals) after cancellation", evals)
	}
}

func TestRunGACancellationParallel(t *testing.T) {
	blocks := flexBlocks(6, 1e-6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultGAConfig()
	cfg.Parallelism = 4
	cfg.Eval = tallPenaltyEval
	cfg.Power = map[string]float64{}
	if _, err := RunGA(ctx, blocks, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel GA with cancelled ctx returned %v, want context.Canceled", err)
	}
}

// A thermal evaluator failure must surface identically from serial and
// parallel runs (the lowest-index failing candidate wins).
func TestRunGAParallelErrorDeterministic(t *testing.T) {
	blocks := flexBlocks(5, 1e-6)
	boom := func(fp *Floorplan, _ map[string]float64) (float64, error) {
		bb := fp.BoundingBox()
		if bb.H/bb.W > 1.5 {
			return 0, fmt.Errorf("aspect %g too tall", bb.H/bb.W)
		}
		return 40, nil
	}
	run := func(p int) error {
		cfg := DefaultGAConfig()
		cfg.Generations = 10
		cfg.Parallelism = p
		cfg.Eval = boom
		cfg.Power = map[string]float64{}
		_, err := RunGA(context.Background(), blocks, cfg)
		return err
	}
	serial := run(1)
	if serial == nil {
		t.Skip("workload never triggered the failing evaluator")
	}
	for _, p := range []int{2, 4} {
		if parallel := run(p); parallel == nil || parallel.Error() != serial.Error() {
			t.Errorf("P=%d error %v, serial error %v", p, parallel, serial)
		}
	}
}

// Elitism carries individuals across generations without re-scoring;
// the memo additionally answers re-drawn duplicates. Sanity-check that
// the memo never changes what the search returns even when it is the
// only difference (disabled-memo comparison is impossible from the
// public API, so spot-check invariants instead).
func TestRunGAMemoAccountingInvariants(t *testing.T) {
	blocks := flexBlocks(7, 1e-6)
	cfg := DefaultGAConfig()
	cfg.Generations = 15
	res, err := RunGA(context.Background(), blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals <= 0 || res.MemoHits < 0 {
		t.Fatalf("nonsensical accounting: %+v", res)
	}
	scored := 1 + (cfg.PopulationSize - 1) + cfg.Generations*(cfg.PopulationSize-cfg.Elitism)
	if res.Evals+res.MemoHits != scored {
		t.Errorf("Evals+MemoHits = %d, want %d", res.Evals+res.MemoHits, scored)
	}
	if math.IsNaN(res.Cost) {
		t.Error("cost is NaN")
	}
}
