// Fixtures for the fpfields analyzer, mirroring the shapes of
// serializers it checks: a receiver serializer (receiver fields plus a
// deliberate skip), modelKey (cross-package struct), and a normalizing
// serializer hashing a withDefaults() copy.
package fpfix

import (
	"fmt"
	"hash/fnv"

	"fpext"
)

type Request struct {
	Flow        string
	Seed        int64
	Parallelism int
	Gantt       bool
}

// A complete serializer with a deliberate, declared skip: silent.
//
//thermalvet:serializes Request skip(Parallelism)
func (r *Request) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%t|", r.Flow, r.Seed, r.Gantt)
	return fmt.Sprintf("%016x", h.Sum64())
}

type Dropped struct {
	Flow string
	Seed int64
}

// Deliberately dropping a field from the serialization names the
// field — the acceptance-criterion case.
//
//thermalvet:serializes Dropped // want `serializer dropped does not reference Dropped.Seed`
func dropped(d Dropped) string {
	return fmt.Sprintf("%s|", d.Flow)
}

// Cross-package registration, complete with skip: silent. Unexported
// fields of the target are outside the contract.
//
//thermalvet:serializes fpext.Config skip(Name)
func configKey(c fpext.Config) string {
	return fmt.Sprintf("%g|%g|", c.Alpha, c.Beta)
}

// Cross-package drift is reported with the qualified label.
//
//thermalvet:serializes fpext.Config // want `serializer configKeyMissing does not reference fpext.Config.Name`
func configKeyMissing(c fpext.Config) string {
	return fmt.Sprintf("%g|%g|", c.Alpha, c.Beta)
}

// Skipping a field that no longer exists is drift in the other
// direction.
//
//thermalvet:serializes Request skip(Bogus, Parallelism) // want `skips Request.Bogus, but Request has no such exported field`
func bogusSkip(r Request) string {
	return fmt.Sprintf("%s|%d|%t|", r.Flow, r.Seed, r.Gantt)
}

// Skipping a field the body actually references is a contradiction.
//
//thermalvet:serializes Request skip(Flow, Parallelism) // want `skips Request.Flow but its body references it`
func contradictorySkip(r Request) string {
	return fmt.Sprintf("%s|%d|%t|", r.Flow, r.Seed, r.Gantt)
}

type spec struct {
	Controller string
	TriggerC   float64
}

func (s spec) withDefaults() spec {
	if s.Controller == "" {
		s.Controller = "toggle"
	}
	return s
}

// Fields reached through a normalized copy (the withDefaults pattern
// the real fingerprints use) count as referenced.
//
//thermalvet:serializes spec
func specKey(s spec) string {
	d := s.withDefaults()
	return fmt.Sprintf("%s|%g|", d.Controller, d.TriggerC)
}

// Unknown type names are reported, not ignored.
//
//thermalvet:serializes NoSuchType // want `type not found`
func unknownType() string { return "" }

// A registration that does not parse is reported.
//
//thermalvet:serializes // want `malformed registration`
func malformed() string { return "" }
