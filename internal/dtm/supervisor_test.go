package dtm

import (
	"math"
	"testing"
)

// Each ladder threshold belongs to the state it opens, and the largest
// temperature below it to the state beneath. Classify and the State
// the zig-zag supervisor's Admit reports map a temperature the same
// way.
func TestLadderClassifyAtThresholds(t *testing.T) {
	l := DefaultLadder
	below := func(c float64) float64 { return math.Nextafter(c, math.Inf(-1)) }
	cases := []struct {
		tempC float64
		want  ThermalState
	}{
		{-40, StateNominal},
		{below(l.FairC), StateNominal},
		{l.FairC, StateFair},
		{below(l.SeriousC), StateFair},
		{l.SeriousC, StateSerious},
		{below(l.CriticalC), StateSerious},
		{l.CriticalC, StateCritical},
		{150, StateCritical},
	}
	zz, err := NewZigZagController(l, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		temps := []float64{c.tempC}
		if got := l.Classify(c.tempC); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.tempC, got, c.want)
		}
		if a := zz.Admit(0, temps, 0, 0); !a.OK || a.State != c.want {
			t.Errorf("zig-zag Admit(%v) = %+v, want OK in %v", c.tempC, a, c.want)
		}
	}
	if s := StateCritical.String(); s != "critical" {
		t.Errorf("StateCritical renders %q, want critical", s)
	}
}

// TestAdmitDenialSticksWithinInstant checks the Supervisor.Admit
// contract the admission gate relies on to skip re-asks: a denial at
// now with Until > now is repeated for every later query of that block
// before Until with the same temperatures and no ScaleInto in between
// (at now itself, halfway, and one ulp before Until), whatever the
// forecast rise, and however many other blocks are queried in between.
func TestAdmitDenialSticksWithinInstant(t *testing.T) {
	ladder := DefaultLadder
	// One block per ladder rung, plus a fair block a hair below serious.
	temps := []float64{60, 75, 79.5, 83, 95}
	rises := []float64{0, 0.1, 4.9, 5, 40, math.Inf(1)}
	nows := []float64{0, 1, 17.25, 1e9}

	cases := []struct {
		name  string
		build func() (Supervisor, error)
		// scale runs one ScaleInto before the queries, arming sticky
		// states and cooling gaps.
		scale bool
		// denies is whether the case must produce at least one holding
		// denial, so the property is not checked vacuously.
		denies bool
	}{
		{"admit", func() (Supervisor, error) { return NewAdmitController(ladder, 0.7, 0.4, 2, 2) }, false, true},
		{"admit/after-scale", func() (Supervisor, error) { return NewAdmitController(ladder, 0.7, 0.4, 2, 2) }, true, true},
		{"admit/short-hold", func() (Supervisor, error) { return NewAdmitController(ladder, 0.7, 0.4, 1e-300, 2) }, true, true},
		{"zigzag/gap", func() (Supervisor, error) { return NewZigZagController(ladder, 5, 1, 0) }, true, true},
		{"zigzag/no-gap", func() (Supervisor, error) { return NewZigZagController(ladder, 5, 1, 0) }, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			held := 0
			for _, now := range nows {
				for _, r0 := range rises {
					for b := range temps {
						s, err := tc.build()
						if err != nil {
							t.Fatal(err)
						}
						if tc.scale {
							if err := s.ScaleInto(make([]float64, len(temps)), temps); err != nil {
								t.Fatal(err)
							}
						}
						first := s.Admit(b, temps, r0, now)
						if first.OK || !(first.Until > now) {
							continue
						}
						held++
						for _, at := range []float64{now, now + (first.Until-now)/2, math.Nextafter(first.Until, math.Inf(-1))} {
							if at < now || at >= first.Until {
								continue
							}
							for _, r := range rises {
								for o := range temps {
									if o != b {
										s.Admit(o, temps, r, at)
									}
								}
								if a := s.Admit(b, temps, r, at); a.OK {
									t.Errorf("now %g block %d: denied at rise %g (until %g), then admitted at %g, rise %g",
										now, b, r0, first.Until, at, r)
								}
							}
						}
					}
				}
			}
			if tc.denies != (held > 0) {
				t.Errorf("holding denials = %d, want any: %v", held, tc.denies)
			}
		})
	}
}

// TestAdmitShortHoldPromisesNothing is the rounding edge of the
// contract: a hold so short that its Until rounds to now does not cover
// the instant, so a smaller forecast at the same now may be admitted.
// A dispatcher that skipped the re-ask here would change the schedule.
func TestAdmitShortHoldPromisesNothing(t *testing.T) {
	c, err := NewAdmitController(DefaultLadder, 0.7, 0.4, 1e-300, 2)
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{75} // fair: admission turns on the forecast
	const now = 100.0
	first := c.Admit(0, temps, 10, now)
	if first.OK || first.Until != now {
		t.Fatalf("first query = %+v, want a denial whose hold rounds away", first)
	}
	if a := c.Admit(0, temps, 1, now); !a.OK {
		t.Errorf("small forecast after a rounded-away hold = %+v, want admitted", a)
	}
}

// A zig-zag gap is at most math.MaxInt32 steps: past MaxInt64 steps
// the conversion to int once wrapped negative and clamped to a
// one-step gap.
func TestZigZagGapBound(t *testing.T) {
	for _, k := range [][2]float64{{math.MaxInt32, 1}, {1, 1e9}, {5, 1}} {
		if _, err := NewZigZagController(DefaultLadder, k[0], k[1], 0); err != nil {
			t.Errorf("coolTime %g, stepTime %g: %v", k[0], k[1], err)
		}
	}
	for _, k := range [][2]float64{{math.MaxInt32 + 1, 1}, {1e19, 1}, {math.Inf(1), 1}, {5, 1e-9}} {
		if zz, err := NewZigZagController(DefaultLadder, k[0], k[1], 0); err == nil {
			t.Errorf("coolTime %g, stepTime %g accepted as %d steps", k[0], k[1], zz.CoolSteps)
		}
	}
}

// The supervisor constructors reject NaN knobs: every range check is a
// negated comparison, which NaN fails.
func TestSupervisorConstructorsRejectNaN(t *testing.T) {
	nan := math.NaN()
	for _, k := range [][4]float64{{nan, 0.4, 2, 2}, {0.7, nan, 2, 2}, {0.7, 0.4, nan, 2}, {0.7, 0.4, 2, nan}} {
		if _, err := NewAdmitController(DefaultLadder, k[0], k[1], k[2], k[3]); err == nil {
			t.Errorf("admit knobs %v accepted", k)
		}
	}
	for _, k := range [][3]float64{{nan, 1, 0}, {5, nan, 0}, {5, 1, nan}} {
		if _, err := NewZigZagController(DefaultLadder, k[0], k[1], k[2]); err == nil {
			t.Errorf("zig-zag knobs %v accepted", k)
		}
	}
	if _, err := NewAdmitController(Ladder{FairC: nan, SeriousC: 80, CriticalC: 88}, 0.7, 0.4, 2, 2); err == nil {
		t.Error("NaN ladder accepted")
	}
}
