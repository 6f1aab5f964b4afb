// Package techlib implements the technology library of the paper's ASP:
// for every (task type, PE type) pair it stores the worst-case execution
// time (WCET) and worst-case power consumption (WCPC), plus the cost and
// die area of each PE type for co-synthesis and floorplanning.
//
// The paper's library is unpublished; StandardLibrary regenerates a
// deterministic library with the property every power-aware heuristic
// depends on: faster PE types burn disproportionately more power
// (power ≈ speed², so energy ≈ speed), giving the scheduler a real
// speed/power/heat trade-off to navigate.
package techlib

import (
	"fmt"
	"math"
)

// PEType describes one processing-element type available to co-synthesis.
type PEType struct {
	Name string
	// Cost is the co-synthesis price of instantiating this PE (abstract
	// dollars; the co-synthesis loop minimizes it subject to the deadline).
	Cost float64
	// Area is the die area in m² used by the floorplanner and thermal model.
	Area float64
	// IdlePower is the PE's idle dissipation in W (leaks even when no
	// task runs; the power profile accounts for it).
	IdlePower float64
}

// Validate reports the first implausible field.
func (p PEType) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("techlib: PE type with empty name")
	case !(p.Cost > 0):
		return fmt.Errorf("techlib: PE type %q has non-positive cost %g", p.Name, p.Cost)
	case !(p.Area > 0):
		return fmt.Errorf("techlib: PE type %q has non-positive area %g", p.Name, p.Area)
	case p.IdlePower < 0 || math.IsNaN(p.IdlePower):
		return fmt.Errorf("techlib: PE type %q has invalid idle power %g", p.Name, p.IdlePower)
	}
	return nil
}

// Entry is the library record for one (task type, PE type) pair.
type Entry struct {
	WCET float64 // worst-case execution time, scheduler time units
	WCPC float64 // worst-case power consumption while executing, W
}

// Energy returns the worst-case energy of one execution, WCET × WCPC.
func (e Entry) Energy() float64 { return e.WCET * e.WCPC }

// Valid reports whether the entry denotes a runnable mapping.
func (e Entry) Valid() bool {
	return e.WCET > 0 && !math.IsInf(e.WCET, 0) && e.WCPC > 0 && !math.IsInf(e.WCPC, 0) &&
		!math.IsNaN(e.WCET) && !math.IsNaN(e.WCPC)
}

// Library maps (task type, PE type) to Entry. Not every task type needs
// to be runnable on every PE type (ASICs in particular).
type Library struct {
	peTypes   []PEType
	numTTypes int
	// entries[peType][taskType]; ok[peType][taskType] marks runnable pairs.
	entries [][]Entry
	ok      [][]bool
}

// NewLibrary creates a library for numTaskTypes task types.
func NewLibrary(numTaskTypes int) (*Library, error) {
	if numTaskTypes < 1 {
		return nil, fmt.Errorf("techlib: need at least one task type, got %d", numTaskTypes)
	}
	return &Library{numTTypes: numTaskTypes}, nil
}

// NumTaskTypes returns the number of task types the library covers.
func (l *Library) NumTaskTypes() int { return l.numTTypes }

// NumPETypes returns the number of registered PE types.
func (l *Library) NumPETypes() int { return len(l.peTypes) }

// PEType returns the PE type with the given index.
func (l *Library) PEType(i int) PEType { return l.peTypes[i] }

// PETypeIndex finds a PE type by name.
func (l *Library) PETypeIndex(name string) (int, bool) {
	for i, p := range l.peTypes {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}

// AddPEType registers a PE type with its per-task-type entries. entries
// must have one element per task type; pass runnable=false positions as
// zero entries with the corresponding runnable flag false. A nil runnable
// slice marks every entry runnable.
func (l *Library) AddPEType(pe PEType, entries []Entry, runnable []bool) error {
	if err := pe.Validate(); err != nil {
		return err
	}
	if _, dup := l.PETypeIndex(pe.Name); dup {
		return fmt.Errorf("techlib: duplicate PE type %q", pe.Name)
	}
	if len(entries) != l.numTTypes {
		return fmt.Errorf("techlib: PE type %q has %d entries, want %d", pe.Name, len(entries), l.numTTypes)
	}
	if runnable == nil {
		runnable = make([]bool, l.numTTypes)
		for i := range runnable {
			runnable[i] = true
		}
	}
	if len(runnable) != l.numTTypes {
		return fmt.Errorf("techlib: PE type %q has %d runnable flags, want %d", pe.Name, len(runnable), l.numTTypes)
	}
	for t, e := range entries {
		if runnable[t] && !e.Valid() {
			return fmt.Errorf("techlib: PE type %q task type %d has invalid entry %+v", pe.Name, t, e)
		}
	}
	l.peTypes = append(l.peTypes, pe)
	es := make([]Entry, l.numTTypes)
	copy(es, entries)
	rs := make([]bool, l.numTTypes)
	copy(rs, runnable)
	l.entries = append(l.entries, es)
	l.ok = append(l.ok, rs)
	return nil
}

// Lookup returns the entry for running a task of type taskType on PE
// type peType, and whether that mapping is runnable.
func (l *Library) Lookup(peType, taskType int) (Entry, bool) {
	if peType < 0 || peType >= len(l.peTypes) || taskType < 0 || taskType >= l.numTTypes {
		return Entry{}, false
	}
	if !l.ok[peType][taskType] {
		return Entry{}, false
	}
	return l.entries[peType][taskType], true
}

// MeanWCET returns the average WCET of taskType over all PE types that
// can run it — the node weight used for static criticality.
func (l *Library) MeanWCET(taskType int) (float64, error) {
	var sum float64
	n := 0
	for pe := range l.peTypes {
		if e, ok := l.Lookup(pe, taskType); ok {
			sum += e.WCET
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("techlib: task type %d runnable on no PE type", taskType)
	}
	return sum / float64(n), nil
}

// Validate checks that every task type is runnable on at least one PE
// type, so any task graph over this type universe can be scheduled.
func (l *Library) Validate() error {
	if len(l.peTypes) == 0 {
		return fmt.Errorf("techlib: no PE types registered")
	}
	for t := 0; t < l.numTTypes; t++ {
		if _, err := l.MeanWCET(t); err != nil {
			return err
		}
	}
	return nil
}
