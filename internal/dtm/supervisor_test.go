package dtm

import (
	"math"
	"testing"
)

// TestAdmitDenialSticksWithinInstant checks the Supervisor.Admit
// contract dispatchers rely on to skip re-asks: a denial at now with
// now+RetryAfter > now is repeated for every later query of that block
// at the same now and temperatures, whatever the forecast rise, and
// however many other blocks are queried in between.
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
		{"supervise/toggle", func() (Supervisor, error) {
			c, err := NewToggleController(80, 2, 0.5)
			if err != nil {
				return nil, err
			}
			return Supervise(c, ladder)
		}, true, false},
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
						if first.OK || !(now+first.RetryAfter > now) {
							continue
						}
						held++
						for _, r := range rises {
							for o := range temps {
								if o != b {
									s.Admit(o, temps, r, now)
								}
							}
							if a := s.Admit(b, temps, r, now); a.OK {
								t.Errorf("now %g block %d: denied at rise %g (retry %g), then admitted at rise %g",
									now, b, r0, first.RetryAfter, r)
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
// contract: a hold so short that now+RetryAfter == now does not cover
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
	if first.OK || now+first.RetryAfter != now {
		t.Fatalf("first query = %+v, want a denial whose hold rounds away", first)
	}
	if a := c.Admit(0, temps, 1, now); !a.OK {
		t.Errorf("small forecast after a rounded-away hold = %+v, want admitted", a)
	}
}
