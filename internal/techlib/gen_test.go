package techlib

import (
	"strings"
	"testing"
)

func genParams(seed int64) GenParams {
	return GenParams{NumTaskTypes: 4, MeanWork: 100, MeanPower: 6, Noise: 0.2, Seed: seed}
}

func libText(t *testing.T, p GenParams) string {
	t.Helper()
	lib, err := Generate(p, CoSynthesisSpecs())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := lib.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Seed zero is a valid seed and must be honored verbatim — the
// library-generator counterpart of TestCoSynthesisSeedZeroContract
// in the root package: no code path may rewrite an explicit zero to a "default"
// seed. (Audited for PR 4: Generate passes p.Seed straight to
// rand.NewSource.)
func TestGenerateSeedZeroHonored(t *testing.T) {
	zeroA := libText(t, genParams(0))
	zeroB := libText(t, genParams(0))
	if zeroA != zeroB {
		t.Error("seed 0 is not deterministic")
	}
	if one := libText(t, genParams(1)); zeroA == one {
		t.Error("seed 0 generated the same library as seed 1 (seed rewritten?)")
	}
}

func TestGenerateSeedChangesLibrary(t *testing.T) {
	if libText(t, genParams(7)) == libText(t, genParams(8)) {
		t.Error("different seeds generated identical libraries")
	}
}
