package bdd

// Builders the suites use to grow functions; neither is engine surface.

// xor is exclusive or through the generic ITE.
func xor(m *Manager, a, b Node) Node { return m.ITE(a, m.Not(b), b) }

// uintLE is the comparator "bits <= bound" over vars, most significant
// first: a chain whose shape depends on every bit of bound.
func uintLE(m *Manager, vars []int, bound uint64) Node {
	le := True
	for i := len(vars) - 1; i >= 0; i-- {
		v := m.Var(vars[i])
		if bound&(1<<(len(vars)-1-i)) != 0 {
			le = m.Or(m.Not(v), le)
		} else {
			le = m.Diff(le, v)
		}
	}
	return le
}
