package thermalsched

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// fingerprintVersion tags the digest scheme. Keys of another scheme,
// journaled by earlier builds, are never matched again: a resubmitted
// request runs once under its current key.
const fingerprintVersion = "req/v5\n"

// Fingerprint returns a stable hex digest of the request's canonical
// form: two requests with equal fingerprints are guaranteed to produce
// byte-identical Responses (modulo the wall-clock elapsedMs field), so
// the async job tier can coalesce identical in-flight or journaled
// requests onto one Engine evaluation.
//
// The digest is FNV-64a over a version tag and the encoding/json bytes
// of canonical(), the copy Engine.Check keeps for the flow, with
// Parallelism zeroed: results are byte-identical at every parallelism
// level, so requests differing only there coalesce. encoding/json writes struct
// fields in declaration order and encodes what pointers point to, so
// the bytes are stable and every field is covered;
// TestRequestFingerprintCoversFields checks that no field reachable
// from Request is hidden from the encoder. Policy aliases, unset and
// explicitly default knobs and specs, and a nil and an explicit
// co-synthesis seed 1 therefore share a key, while an explicit seed 0
// stays seed 0.
//
// Validate rejects NaN and ±Inf, which JSON cannot carry; for such a
// request the digest covers the encoder's error instead.
//
// Distinct fingerprints do NOT imply distinct responses (two different
// seeds can happen to schedule identically); the guarantee is one-way,
// which is the safe direction for a coalescing key.
func (r *Request) Fingerprint() string { return fingerprintOf(r.canonical()) }

// fingerprintOf is the digest Request.Fingerprint and
// Checked.Fingerprint share, of a request in canonical form.
func fingerprintOf(c Request) string {
	c.Parallelism = 0
	b, err := json.Marshal(&c)
	if err != nil {
		b = []byte(err.Error())
	}
	h := fnv.New64a()
	h.Write([]byte(fingerprintVersion))
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
