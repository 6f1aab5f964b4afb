package thermalsched

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end (go run),
// asserting each exits cleanly and prints its expected marker. Skipped
// in -short mode: each run re-executes the flows.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cases := []struct {
		dir    string
		marker string
	}{
		{"./examples/quickstart", "thermal"},
		{"./examples/platform_design", "Platform-based design flow"},
		{"./examples/cosynthesis", "architecture"},
		{"./examples/thermal_exploration", "warm start: makespan"},
		{"./examples/runtime_dtm", "Closed-loop DTM comparison"},
		{"./examples/campaign", "fingerprint matches the campaign row"},
		{"./examples/stream", "price of onlineness"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", tc.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", tc.dir, err, out)
			}
			if !strings.Contains(string(out), tc.marker) {
				t.Errorf("%s output missing %q:\n%s", tc.dir, tc.marker, out)
			}
		})
	}
}
