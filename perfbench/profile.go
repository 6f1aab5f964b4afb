package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU-profile sample record: how many profiler ticks
// landed on its stack, their CPU time, and the stack as function names,
// innermost frame first (inlined frames included).
type cpuSample struct {
	count, ns int64
	stack     []string
}

// parseCPUProfile decodes the parts of a gzipped pprof profile
// (github.com/google/pprof/proto/profile.proto) that layer attribution
// needs: sample types, samples, locations, functions and strings.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indices
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return varints(v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, p, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	count, cpu := -1, -1
	for i, t := range sampleTypes {
		switch str(t[0]) + "/" + str(t[1]) {
		case "samples/count":
			count = i
		case "cpu/nanoseconds":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("profile: no samples/count and cpu/nanoseconds sample types")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if count >= len(s.vals) || cpu >= len(s.vals) {
			continue
		}
		cs := cpuSample{count: s.vals[count], ns: s.vals[cpu]}
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[f]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field number
// and its value: the varint for wire types 0, 1 and 5 (fixed-width
// values widened), the payload for length-delimited fields.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated integer field: one value when unpacked
// (payload nil), every varint of the payload when packed.
func varints(v uint64, payload []byte, yield func(uint64)) error {
	if payload == nil {
		yield(v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		payload = payload[n:]
	}
	return nil
}

// layers are the buckets the CPU profile is split into. Each sample goes
// to the innermost frame that belongs to the repository, so a layer's
// share includes the standard-library and runtime code it calls
// (allocation and GC assists among them). "oracle" is split out of
// sched and hotspot by function name; "client" is the benchmark's own
// code; "goruntime" holds samples with no repository frame (background
// GC workers, the scheduler).
var layers = []string{
	"service", "engine", "cosynth", "scenario", "sched", "oracle", "hotspot", "linalg",
	"floorplan", "search", "coloop", "stream", "dtm", "other", "client", "goruntime",
}

const repoModule = "thermalsched"

// oracleFuncs are the steady-state thermal query paths: the sched
// influence oracle and the hotspot functions it and the flows call to
// read temperatures off a built model.
var oracleFuncs = []string{
	"sched.(*ModelOracle).",
	"hotspot.(*Model).Steady", "hotspot.(*Model).steady",
	"hotspot.(*Model).InfluenceRow", "hotspot.(*Model).influenceRow",
	"hotspot.(*Model).ensureInfluence", "hotspot.(*Model).powerVector",
	"hotspot.Temps.",
}

// layerOf assigns one sample's stack to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		// Request routing in net/http's ServeMux is the service's cost.
		if strings.HasPrefix(fn, "net/http.(*ServeMux).") {
			return "service"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "client"
		}
	}
	return "goruntime"
}

// repoLayer maps a repository function to its layer, "" otherwise.
func repoLayer(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == repoModule:
		return "engine"
	case !strings.HasPrefix(pkg, repoModule+"/internal/"):
		return ""
	}
	name := strings.TrimPrefix(fn, repoModule+"/internal/")
	for _, p := range oracleFuncs {
		if strings.HasPrefix(name, p) {
			return "oracle"
		}
	}
	switch l := strings.TrimPrefix(pkg, repoModule+"/internal/"); l {
	case "jobs":
		return "service"
	case "service", "cosynth", "scenario", "sched", "hotspot", "linalg",
		"floorplan", "search", "coloop", "stream", "dtm":
		return l
	}
	return "other"
}

// pkgOf returns the import path of a symbolized Go function name such
// as "thermalsched/internal/search.(*LRU[go.shape.*uint8]).Get".
func pkgOf(fn string) string {
	prefix := fn
	if i := strings.IndexAny(prefix, "(["); i >= 0 {
		prefix = prefix[:i]
	}
	slash := strings.LastIndex(prefix, "/")
	if dot := strings.Index(prefix[slash+1:], "."); dot >= 0 {
		return prefix[:slash+1+dot]
	}
	return prefix
}

// attribute sums sample CPU time per layer, and the profiler ticks.
func attribute(samples []cpuSample) (byLayer map[string]int64, total, ticks int64) {
	byLayer = make(map[string]int64, len(layers))
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.ns
		total += s.ns
		ticks += s.count
	}
	return byLayer, total, ticks
}
