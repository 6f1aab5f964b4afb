package linalg

// SteadySolver is a factored linear system ready to answer A·x = b
// solves. The hotspot steady-state path holds one behind this interface
// so the dense Cholesky reference and the sparse Cholesky backend are
// interchangeable; SolveInto is the zero-allocation hot form everywhere.
type SteadySolver interface {
	// N returns the system dimension.
	N() int
	// SolveInto solves A·x = b into the caller-supplied x without
	// allocating on the steady path. x and b may alias.
	SolveInto(x, b []float64) error
}

// N returns the system dimension.
func (c *Cholesky) N() int { return c.n }

// Compile-time checks that every backend satisfies the interface.
var (
	_ SteadySolver = (*Cholesky)(nil)
	_ SteadySolver = (*SparseCholesky)(nil)
)
