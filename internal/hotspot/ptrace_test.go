package hotspot

import (
	"bytes"
	"strings"
	"testing"
)

func TestPowerTraceRoundTrip(t *testing.T) {
	p := &PowerTrace{
		Names: []string{"pe0", "pe1"},
		Samples: [][]float64{
			{1.5, 0},
			{0, 2.25},
			{3, 3},
		},
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPowerTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names) != 2 || got.Names[1] != "pe1" {
		t.Fatalf("names = %v", got.Names)
	}
	if len(got.Samples) != 3 || got.Samples[1][1] != 2.25 {
		t.Fatalf("samples = %v", got.Samples)
	}
}

func TestPowerTraceValidate(t *testing.T) {
	cases := []struct {
		name string
		p    PowerTrace
	}{
		{"no columns", PowerTrace{}},
		{"empty name", PowerTrace{Names: []string{""}}},
		{"duplicate name", PowerTrace{Names: []string{"a", "a"}}},
		{"ragged row", PowerTrace{Names: []string{"a", "b"}, Samples: [][]float64{{1}}}},
		{"negative power", PowerTrace{Names: []string{"a"}, Samples: [][]float64{{-1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
	good := PowerTrace{Names: []string{"a"}, Samples: [][]float64{{1}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestReadPowerTraceErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"comments only", "# hi\n"},
		{"ragged", "a b\n1\n"},
		{"bad number", "a\nxyz\n"},
		{"negative", "a\n-3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPowerTrace(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadPowerTrace(%q) succeeded", tc.in)
			}
		})
	}
}

func TestReadPowerTraceSkipsComments(t *testing.T) {
	in := "# power trace\npe0\tpe1\n# a row comment\n1\t2\n"
	p, err := ReadPowerTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != 1 || p.Samples[0][1] != 2 {
		t.Fatalf("samples = %v", p.Samples)
	}
}

func TestPowerTraceReorder(t *testing.T) {
	p := &PowerTrace{
		Names:   []string{"b", "a"},
		Samples: [][]float64{{1, 2}, {3, 4}},
	}
	out, err := p.Reorder([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 2 || out[0][1] != 1 || out[0][2] != 0 {
		t.Errorf("reordered row = %v", out[0])
	}
	if _, err := p.Reorder([]string{"a"}); err == nil {
		t.Error("extra trace column accepted")
	}
}

func TestPowerTraceDrivesTransient(t *testing.T) {
	m := model4(t)
	p := &PowerTrace{
		Names:   []string{"pe0", "pe1", "pe2", "pe3"},
		Samples: [][]float64{{5, 0, 0, 0}, {0, 5, 0, 0}, {0, 0, 5, 0}, {0, 0, 0, 5}},
	}
	samples, err := p.Reorder(m.BlockNames())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	var last Temps
	for _, s := range samples {
		if last, err = tr.StepVec(s); err != nil {
			t.Fatal(err)
		}
	}
	if last.Max() <= DefaultConfig().AmbientC {
		t.Error("trace should heat the die")
	}
}
