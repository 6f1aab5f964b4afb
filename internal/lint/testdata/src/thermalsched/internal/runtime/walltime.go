// Fixtures for the walltime analyzer inside a deterministic-core
// package path.
package runtime

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func stamp() time.Time {
	return time.Now() // want `wall-clock read time.Now in the deterministic core`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock read time.Since in the deterministic core`
}

func deadline(t time.Time) time.Duration {
	return time.Until(t) // want `wall-clock read time.Until in the deterministic core`
}

// An explicit waiver for a documented observability site.
func waivedElapsed(start time.Time) float64 {
	//thermalvet:allow walltime(elapsed-ms stamp is observability only, excluded from byte-identity)
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func draw() float64 {
	return rand.Float64() // want `process-global RNG rand.Float64 in the deterministic core`
}

func drawV2() int {
	return randv2.IntN(4) // want `process-global RNG rand.IntN in the deterministic core`
}

// Seeded instances are the sanctioned pattern: constructors and
// methods on *rand.Rand are silent.
func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Deterministic time arithmetic is fine; only clock reads are
// ambient.
func scale(d time.Duration) time.Duration {
	return d * 2
}
