// Package linalg implements the small linear-algebra kernels the
// thermal RC model needs: CSR matrices, a sparse Cholesky
// factorization under a natural or min-degree elimination order, and
// the implicit backward-Euler ODE stepper on that factor.
//
// The Go standard library ships no numerics, and this reproduction is
// offline-only, so everything here is written from scratch.
package linalg

// Vector helpers. Vectors are plain []float64 so callers can use them
// without wrapping; these functions centralize the arithmetic.

// Mean returns the arithmetic mean of v, 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Max returns the maximum of v. It panics on an empty slice: every caller
// in this repository has at least one thermal node.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("linalg: Max of empty vector")
	}
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Min returns the minimum of v. It panics on an empty slice.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("linalg: Min of empty vector")
	}
	mn := v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
	}
	return mn
}
