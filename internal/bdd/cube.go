package bdd

import (
	"fmt"
	"slices"
)

// Direct construction of literals, cubes and cube sets. These build a
// function whose shape is known up front with one mk per result node:
// no apply kernel, no operation-cache traffic, no intermediate nodes. The
// apply kernels are for combining functions; a conjunction of literals or
// a union of such conjunctions is not a combination, it is a diagram that
// can be written down. All three read the manager's CURRENT level order,
// so they stay correct after Reorder, and only hash-cons, so they are safe
// for concurrent use directly on the Manager.

// literal returns "the variable at level is value, and rest holds", for a
// rest whose support lies strictly below level.
func (m *Manager) literal(level int32, value bool, rest Node) Node {
	if value {
		return m.mk(level, False, rest)
	}
	return m.mk(level, rest, False)
}

// Cube returns the conjunction of literals: vars[i] if values[i], else its
// negation. The literals may arrive in any order; a variable repeated with
// one value counts once, and one repeated with conflicting values makes the
// cube False. Safe for concurrent use (hash-consing only).
func (m *Manager) Cube(vars []int, values []bool) Node {
	if len(vars) != len(values) {
		panic("bdd: Cube length mismatch")
	}
	// Sort level<<1|value keys in a stack buffer (no allocation up to 64
	// literals), which also brings repeats together, and build bottom-up.
	var buf [64]int32
	lits := buf[:0]
	for i, v := range vars {
		l := m.var2level[v] << 1
		if values[i] {
			l |= 1
		}
		lits = append(lits, l)
	}
	slices.Sort(lits)
	r := True
	for i := len(lits) - 1; i >= 0; i-- {
		if i > 0 && lits[i]>>1 == lits[i-1]>>1 {
			if lits[i] != lits[i-1] {
				return False
			}
			continue
		}
		r = m.literal(lits[i]>>1, lits[i]&1 == 1, r)
	}
	return r
}

// UintCube encodes value in the given bit variables (vars[0] is the most
// significant bit) as a conjunction of literals.
func (m *Manager) UintCube(vars []int, value uint64) Node {
	var buf [64]bool
	values := buf[:0]
	for i := range vars {
		values = append(values, value&(1<<(len(vars)-1-i)) != 0)
	}
	return m.Cube(vars, values)
}

// BitCube is one cube over a bit-vector of at most 64 variables, in
// UintCube's convention (bit len(vars)-1-i stands for vars[i], so vars[0]
// is the most significant): the conjunction of one literal per set bit of
// Care, positive where the same bit of Val is set. Bits of Val outside Care
// are ignored; Care == 0 is the constant True. A Care bit at a position
// with no variable (>= len(vars)) is a caller's width mistake: CubeSet panics.
type BitCube struct{ Care, Val uint64 }

// CubeSet returns the union of the given cubes over vars (at most 64
// distinct variables). It is a recursive partition of the cube list along
// the current level order — the cubes that want a 0 at the top cared-about
// level go low, those that want a 1 go high, those that do not care go
// both ways — and every call returns a cofactor of the result, so each mk
// yields a node of the final diagram: no garbage, and linear in the input
// for cubes without don't-cares.
//
// A cube that goes both ways makes its sub-lists reachable along more than
// one path, so from there down results are memoized per (level, surviving
// cubes). That bounds the work by the distinct surviving subsets, which is
// polynomial for cubes whose care sets nest (prefixes and ranges of a
// bit-vector, under any order) and exponential only for a formula whose
// cubes constrain independent variables — build those with Or.
//
// Safe for concurrent use (hash-consing only).
func (m *Manager) CubeSet(vars []int, cubes []BitCube) Node {
	if len(vars) > 64 {
		panic(fmt.Sprintf("bdd: CubeSet over %d variables (max 64)", len(vars)))
	}
	var care uint64
	for _, c := range cubes {
		care |= c.Care
	}
	if len(vars) < 64 && care>>len(vars) != 0 {
		panic(fmt.Sprintf("bdd: CubeSet Care %#x has bits outside the %d variables", care, len(vars)))
	}
	b := cubeSetBuilder{m: m, cubes: cubes}
	// Depth d of the recursion decides the d-th variable in level order.
	var byLevel [64]int64 // level<<6 | bit position
	for i, v := range vars {
		byLevel[i] = int64(m.var2level[v])<<6 | int64(len(vars)-1-i)
	}
	slices.Sort(byLevel[:len(vars)])
	for d := range vars {
		b.level[d] = int32(byLevel[d] >> 6)
		b.bit[d] = 1 << (byLevel[d] & 63)
		if d > 0 && b.level[d] == b.level[d-1] {
			panic(fmt.Sprintf("bdd: CubeSet variable %d repeated", m.level2var[b.level[d]]))
		}
	}
	for d := len(vars) - 1; d >= 0; d-- {
		b.below[d] = b.below[d+1] | b.bit[d]
	}
	b.arena = make([]int32, len(cubes), 4*len(cubes))
	for i := range b.arena {
		b.arena[i] = int32(i)
	}
	return b.build(b.arena, 0, false)
}

type cubeSetBuilder struct {
	m     *Manager
	cubes []BitCube
	level [64]int32  // level decided at depth d, ascending
	bit   [64]uint64 // BitCube mask bit of that level's variable
	below [65]uint64 // below[d] = bit[d] | bit[d+1] | ...
	// arena holds the index lists of the partitions on the current
	// recursion path (stack discipline: a branch's list is appended, built
	// from, and truncated away).
	arena []int32
	memo  map[string]Node // depth byte + surviving indices → result
	key   []byte
}

// build returns the union of the cubes indexed by set (in ascending index
// order), restricted to the variables at depth d and deeper; literals above
// d have been decided by the caller. shared is set once an ancestor sent a
// cube both ways.
func (b *cubeSetBuilder) build(set []int32, d int, shared bool) Node {
	if len(set) == 0 {
		return False
	}
	var care uint64
	for _, i := range set {
		c := b.cubes[i].Care
		if c&b.below[d] == 0 {
			return True // a cube with nothing left to ask absorbs the rest
		}
		care |= c
	}
	for care&b.bit[d] == 0 {
		d++
	}
	bit := b.bit[d]
	var key string
	if shared {
		b.key = append(b.key[:0], byte(d))
		for _, i := range set {
			b.key = append(b.key, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
		}
		if r, ok := b.memo[string(b.key)]; ok {
			return r
		}
		key = string(b.key)
	} else {
		for _, i := range set {
			if b.cubes[i].Care&bit == 0 {
				shared = true
				break
			}
		}
	}
	r := b.m.mk(b.level[d], b.branch(set, d, 0, shared), b.branch(set, d, bit, shared))
	if key != "" {
		if b.memo == nil {
			b.memo = map[string]Node{}
		}
		b.memo[key] = r
	}
	return r
}

// branch builds the cofactor of set at depth d for the decided value want
// (0 or the depth's mask bit): the cubes asking for it or not caring.
func (b *cubeSetBuilder) branch(set []int32, d int, want uint64, shared bool) Node {
	bit, mark := b.bit[d], len(b.arena)
	for _, i := range set {
		if c := b.cubes[i]; c.Care&bit == 0 || c.Val&bit == want {
			b.arena = append(b.arena, i)
		}
	}
	r := b.build(b.arena[mark:], d+1, shared)
	b.arena = b.arena[:mark]
	return r
}
