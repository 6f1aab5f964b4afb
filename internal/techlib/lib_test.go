package techlib

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func twoPELib(t *testing.T) *Library {
	t.Helper()
	lib, err := NewLibrary(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.AddPEType(
		PEType{Name: "slow", Cost: 10, Area: 1e-6, IdlePower: 0.1},
		[]Entry{{WCET: 100, WCPC: 2}, {WCET: 200, WCPC: 3}},
		nil,
	); err != nil {
		t.Fatal(err)
	}
	if err := lib.AddPEType(
		PEType{Name: "fast", Cost: 50, Area: 2e-6, IdlePower: 0.2},
		[]Entry{{WCET: 50, WCPC: 8}, {}},
		[]bool{true, false},
	); err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestPETypeValidate(t *testing.T) {
	good := PEType{Name: "x", Cost: 1, Area: 1, IdlePower: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("valid PE rejected: %v", err)
	}
	bad := []PEType{
		{Name: "", Cost: 1, Area: 1},
		{Name: "x", Cost: 0, Area: 1},
		{Name: "x", Cost: 1, Area: 0},
		{Name: "x", Cost: 1, Area: 1, IdlePower: -1},
		{Name: "x", Cost: 1, Area: 1, IdlePower: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad PE %d accepted: %+v", i, p)
		}
	}
}

func TestEntry(t *testing.T) {
	e := Entry{WCET: 10, WCPC: 3}
	if e.Energy() != 30 {
		t.Errorf("Energy = %v", e.Energy())
	}
	if !e.Valid() {
		t.Error("valid entry rejected")
	}
	for _, bad := range []Entry{
		{},
		{WCET: 10},
		{WCPC: 3},
		{WCET: -1, WCPC: 3},
		{WCET: math.Inf(1), WCPC: 3},
		{WCET: 10, WCPC: math.NaN()},
	} {
		if bad.Valid() {
			t.Errorf("invalid entry accepted: %+v", bad)
		}
	}
}

func TestLibraryBasics(t *testing.T) {
	lib := twoPELib(t)
	if lib.NumTaskTypes() != 2 || lib.NumPETypes() != 2 {
		t.Fatalf("dims = %d/%d", lib.NumTaskTypes(), lib.NumPETypes())
	}
	if lib.PEType(1).Name != "fast" {
		t.Error("PEType(1) wrong")
	}
	i, ok := lib.PETypeIndex("slow")
	if !ok || i != 0 {
		t.Error("PETypeIndex(slow) wrong")
	}
	if _, ok := lib.PETypeIndex("missing"); ok {
		t.Error("PETypeIndex(missing) should be !ok")
	}
}

func TestLookup(t *testing.T) {
	lib := twoPELib(t)
	e, ok := lib.Lookup(0, 1)
	if !ok || e.WCET != 200 {
		t.Errorf("Lookup(0,1) = %+v, %v", e, ok)
	}
	if _, ok := lib.Lookup(1, 1); ok {
		t.Error("non-runnable pair reported runnable")
	}
	if _, ok := lib.Lookup(-1, 0); ok {
		t.Error("negative PE index accepted")
	}
	if _, ok := lib.Lookup(0, 9); ok {
		t.Error("out-of-range task type accepted")
	}
}

func TestMeanWCET(t *testing.T) {
	lib := twoPELib(t)
	m, err := lib.MeanWCET(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-75) > 1e-12 { // (100+50)/2
		t.Errorf("MeanWCET(0) = %v, want 75", m)
	}
	m, err = lib.MeanWCET(1)
	if err != nil {
		t.Fatal(err)
	}
	if m != 200 { // only the slow PE runs type 1
		t.Errorf("MeanWCET(1) = %v, want 200", m)
	}
}

func TestAddPETypeValidation(t *testing.T) {
	lib, _ := NewLibrary(2)
	entries := []Entry{{WCET: 1, WCPC: 1}, {WCET: 1, WCPC: 1}}
	if err := lib.AddPEType(PEType{Name: "a", Cost: 1, Area: 1}, entries, nil); err != nil {
		t.Fatal(err)
	}
	if err := lib.AddPEType(PEType{Name: "a", Cost: 1, Area: 1}, entries, nil); err == nil {
		t.Error("duplicate PE type accepted")
	}
	if err := lib.AddPEType(PEType{Name: "b", Cost: 1, Area: 1}, entries[:1], nil); err == nil {
		t.Error("short entries accepted")
	}
	if err := lib.AddPEType(PEType{Name: "b", Cost: 1, Area: 1}, entries, []bool{true}); err == nil {
		t.Error("short runnable accepted")
	}
	if err := lib.AddPEType(PEType{Name: "b", Cost: 1, Area: 1},
		[]Entry{{}, {WCET: 1, WCPC: 1}}, nil); err == nil {
		t.Error("invalid runnable entry accepted")
	}
	if err := lib.AddPEType(PEType{Name: ""}, entries, nil); err == nil {
		t.Error("invalid PE accepted")
	}
}

func TestLibraryValidate(t *testing.T) {
	empty, _ := NewLibrary(1)
	if err := empty.Validate(); err == nil {
		t.Error("empty library accepted")
	}
	// Task type 1 not runnable anywhere.
	lib, _ := NewLibrary(2)
	if err := lib.AddPEType(PEType{Name: "a", Cost: 1, Area: 1},
		[]Entry{{WCET: 1, WCPC: 1}, {}}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if err := lib.Validate(); err == nil {
		t.Error("uncoverable task type accepted")
	}
	if err := twoPELib(t).Validate(); err != nil {
		t.Errorf("valid library rejected: %v", err)
	}
	if _, err := NewLibrary(0); err == nil {
		t.Error("zero task types accepted")
	}
}

func TestGenerateSpeedPowerTradeoff(t *testing.T) {
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	slow, _ := lib.PETypeIndex("pe-slow")
	fast, _ := lib.PETypeIndex("pe-fast")
	fasterCount, hotterCount, n := 0, 0, 0
	for tt := 0; tt < lib.NumTaskTypes(); tt++ {
		es, ok1 := lib.Lookup(slow, tt)
		ef, ok2 := lib.Lookup(fast, tt)
		if !ok1 || !ok2 {
			continue
		}
		n++
		if ef.WCET < es.WCET {
			fasterCount++
		}
		if ef.WCPC > es.WCPC {
			hotterCount++
		}
	}
	if n == 0 {
		t.Fatal("no comparable task types")
	}
	if fasterCount != n {
		t.Errorf("fast PE slower than slow PE on %d/%d types", n-fasterCount, n)
	}
	if hotterCount != n {
		t.Errorf("fast PE cooler than slow PE on %d/%d types", n-hotterCount, n)
	}
}

func TestGenerateEnergyGrowsWithSpeed(t *testing.T) {
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := lib.PETypeIndex("pe-slow")
	fast, _ := lib.PETypeIndex("pe-fast")
	worse := 0
	n := 0
	for tt := 0; tt < lib.NumTaskTypes(); tt++ {
		es, ok1 := lib.Lookup(slow, tt)
		ef, ok2 := lib.Lookup(fast, tt)
		if !ok1 || !ok2 {
			continue
		}
		n++
		if ef.Energy() > es.Energy() {
			worse++
		}
	}
	// Energy ∝ speed (modulo ±15% noise), so the fast PE should cost
	// more energy on nearly every task type.
	if worse < n-1 {
		t.Errorf("fast PE more energy-hungry on only %d/%d types", worse, n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < a.NumPETypes(); pe++ {
		for tt := 0; tt < a.NumTaskTypes(); tt++ {
			ea, oka := a.Lookup(pe, tt)
			eb, okb := b.Lookup(pe, tt)
			if oka != okb || ea != eb {
				t.Fatalf("library not deterministic at (%d,%d)", pe, tt)
			}
		}
	}
}

func TestGenerateParamValidation(t *testing.T) {
	specs := StandardSpecs()
	bad := []GenParams{
		{NumTaskTypes: 0, MeanWork: 1, MeanPower: 1},
		{NumTaskTypes: 1, MeanWork: 0, MeanPower: 1},
		{NumTaskTypes: 1, MeanWork: 1, MeanPower: 0},
		{NumTaskTypes: 1, MeanWork: 1, MeanPower: 1, Noise: 1.5},
	}
	for i, p := range bad {
		if _, err := Generate(p, specs); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	good := GenParams{NumTaskTypes: 2, MeanWork: 10, MeanPower: 1}
	if _, err := Generate(good, nil); err == nil {
		t.Error("empty specs accepted")
	}
	if _, err := Generate(good, []PESpec{{Name: "x", Speed: 0, Cost: 1, Area: 1}}); err == nil {
		t.Error("zero-speed spec accepted")
	}
}

func TestPlatformPETypeExists(t *testing.T) {
	lib, err := StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.PETypeIndex(PlatformPEType); !ok {
		t.Errorf("platform PE type %q missing from standard library", PlatformPEType)
	}
}

func TestLibraryWriteReadRoundTrip(t *testing.T) {
	lib := twoPELib(t)
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTaskTypes() != 2 || got.NumPETypes() != 2 {
		t.Fatalf("dims changed: %d/%d", got.NumTaskTypes(), got.NumPETypes())
	}
	for pe := 0; pe < 2; pe++ {
		if got.PEType(pe) != lib.PEType(pe) {
			t.Errorf("PE %d changed: %+v vs %+v", pe, got.PEType(pe), lib.PEType(pe))
		}
		for tt := 0; tt < 2; tt++ {
			ea, oka := lib.Lookup(pe, tt)
			eb, okb := got.Lookup(pe, tt)
			if oka != okb || ea != eb {
				t.Errorf("entry (%d,%d) changed", pe, tt)
			}
		}
	}
}

func TestReadLibraryErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"entry before header", "entry a 0 1 1\n"},
		{"petype before header", "petype a 1 1 0\n"},
		{"bad tasktypes", "tasktypes x\n"},
		{"zero tasktypes", "tasktypes 0\n"},
		{"petype arity", "tasktypes 1\npetype a 1\n"},
		{"bad petype num", "tasktypes 1\npetype a x 1 0\n"},
		{"dup petype", "tasktypes 1\npetype a 1 1 0\npetype a 1 1 0\n"},
		{"entry unknown pe", "tasktypes 1\npetype a 1 1 0\nentry b 0 1 1\n"},
		{"entry bad type", "tasktypes 1\npetype a 1 1 0\nentry a 5 1 1\n"},
		{"entry bad nums", "tasktypes 1\npetype a 1 1 0\nentry a 0 x 1\n"},
		{"unknown directive", "tasktypes 1\nwat\n"},
		{"uncovered type", "tasktypes 2\npetype a 1 1 0\nentry a 0 1 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadLibrary(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadLibrary(%q) succeeded", tc.in)
			}
		})
	}
}
