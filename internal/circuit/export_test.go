package circuit

import "samurai/internal/num"

// DenseSystem returns the dense MNA matrix and RHS of the runner's last
// Newton iteration and the frozen pattern they were stamped on, for the
// recorded-matrix differential tests in package circuit_test.
func (r *Runner) DenseSystem() (a *num.Matrix, b []float64, pattern []int32) {
	return r.st.a, r.st.b, r.st.pat
}
