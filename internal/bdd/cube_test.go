package bdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// applyCube is the apply-based oracle for Cube: the And-chain the direct
// builders replaced.
func applyCube(m *Manager, vars []int, values []bool) Node {
	r := True
	for i, v := range vars {
		if values[i] {
			r = m.And(r, m.Var(v))
		} else {
			r = m.And(r, m.NVar(v))
		}
	}
	return r
}

// applyCubeSet is the apply-based oracle for CubeSet: Or over And-chains.
func applyCubeSet(m *Manager, vars []int, cubes []BitCube) Node {
	r := False
	for _, c := range cubes {
		var cv []int
		var vals []bool
		for i, v := range vars {
			if bit := uint64(1) << (len(vars) - 1 - i); c.Care&bit != 0 {
				cv = append(cv, v)
				vals = append(vals, c.Val&bit != 0)
			}
		}
		r = m.Or(r, applyCube(m, cv, vals))
	}
	return r
}

// dagSize counts the slab slots reachable from n, the constant excluded.
func dagSize(m *Manager, n Node) int {
	seen := map[uint32]bool{0: true}
	var walk func(Node)
	walk = func(n Node) {
		if idx := uint32(n) >> 1; !seen[idx] {
			seen[idx] = true
			walk(m.low(n))
			walk(m.high(n))
		}
	}
	walk(n)
	return len(seen) - 1
}

// cubeTestManagers returns managers over n variables under the identity
// order, a shuffled static order, and an order sifting produced.
func cubeTestManagers(t *testing.T, n int, rng *rand.Rand) map[string]*Manager {
	t.Helper()
	sifted := New(n)
	f := pairedDisjunction(sifted, n/2)
	sifted.Pin(f)
	before := sifted.Order()
	sifted.Reorder(f)
	if reflect.DeepEqual(before, sifted.Order()) {
		t.Fatal("forced Reorder left the order unchanged")
	}
	return map[string]*Manager{
		"identity": New(n),
		"shuffled": NewOrdered(n, rng.Perm(n)),
		"sifted":   sifted,
	}
}

func TestCubeMatchesApplyInAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 12
	for name, m := range cubeTestManagers(t, n, rng) {
		for trial := 0; trial < 300; trial++ {
			// Literals in random order, variables possibly repeated — with
			// the same value or a conflicting one.
			k := rng.Intn(n + 4)
			vars := make([]int, k)
			values := make([]bool, k)
			for i := range vars {
				vars[i] = rng.Intn(n)
				values[i] = rng.Intn(2) == 1
			}
			if got, want := m.Cube(vars, values), applyCube(m, vars, values); got != want {
				t.Fatalf("%s: Cube(%v, %v) = %v, apply oracle %v", name, vars, values, got, want)
			}
		}
		if got := m.Cube([]int{3, 5, 3}, []bool{true, false, false}); got != False {
			t.Errorf("%s: conflicting repeat = %v, want False", name, got)
		}
		if got, want := m.Cube([]int{3, 5, 3}, []bool{true, false, true}), m.And(m.Var(3), m.NVar(5)); got != want {
			t.Errorf("%s: agreeing repeat = %v, want %v", name, got, want)
		}
		for v := uint64(0); v < 16; v++ {
			vars := []int{7, 1, 4, 2}
			values := []bool{v&8 != 0, v&4 != 0, v&2 != 0, v&1 != 0}
			if got, want := m.UintCube(vars, v), applyCube(m, vars, values); got != want {
				t.Fatalf("%s: UintCube(%v, %d) = %v, want %v", name, vars, v, got, want)
			}
		}
	}
}

func TestCubeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cube with mismatched lengths did not panic")
		}
	}()
	New(4).Cube([]int{0, 1}, []bool{true})
}

// TestCubeDoesNotAllocate: the literal keys are sorted in a stack buffer, so
// a cube costs no heap allocation whatever order its literals arrive in.
func TestCubeDoesNotAllocate(t *testing.T) {
	m := New(40)
	vars := rand.New(rand.NewSource(4)).Perm(40)[:32]
	values := make([]bool, 32)
	for i := range values {
		values[i] = i%3 == 0
	}
	m.Cube(vars, values) // create the nodes once; reruns only look up
	if a := testing.AllocsPerRun(100, func() { m.Cube(vars, values) }); a != 0 {
		t.Errorf("Cube: %v allocs/op, want 0", a)
	}
	m.UintCube(vars, 0xdeadbeef)
	if a := testing.AllocsPerRun(100, func() { m.UintCube(vars, 0xdeadbeef) }); a != 0 {
		t.Errorf("UintCube: %v allocs/op, want 0", a)
	}
}

func randomBitCubes(rng *rand.Rand, nvars, k int, dontCares bool) []BitCube {
	full := uint64(1)<<nvars - 1
	cubes := make([]BitCube, k)
	for i := range cubes {
		cubes[i] = BitCube{Care: full, Val: rng.Uint64()}
		if dontCares {
			cubes[i].Care = rng.Uint64() & full
		}
	}
	return cubes
}

func TestCubeSetMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 12
	for name, m := range cubeTestManagers(t, n, rng) {
		for trial := 0; trial < 200; trial++ {
			vars := rng.Perm(n)[:1+rng.Intn(n)]
			cubes := randomBitCubes(rng, len(vars), rng.Intn(12), trial%2 == 0)
			if trial%10 == 0 && len(cubes) > 1 {
				cubes[len(cubes)-1] = cubes[0] // a duplicate
			}
			want := applyCubeSet(m, vars, cubes)
			if got := m.CubeSet(vars, cubes); got != want {
				t.Fatalf("%s: CubeSet(%v, %x) = %v, apply oracle %v", name, vars, cubes, got, want)
			}
		}
		if got := m.CubeSet([]int{0, 1}, nil); got != False {
			t.Errorf("%s: empty cube set = %v, want False", name, got)
		}
		if got := m.CubeSet([]int{0, 1}, []BitCube{{Care: 3, Val: 1}, {}}); got != True {
			t.Errorf("%s: cube set with an empty cube = %v, want True", name, got)
		}
	}
}

// TestCubeSetCreatesOnlyResultNodes: every mk of the builder lands in the
// final diagram, with or without don't-cares, so on a fresh manager the
// created counter moves by exactly the result's size.
func TestCubeSetCreatesOnlyResultNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		const n = 20
		m := NewOrdered(n, rng.Perm(n))
		cubes := randomBitCubes(rng, n, 1+rng.Intn(200), trial%2 == 0)
		_, before := m.UniqueStats()
		f := m.CubeSet(rng.Perm(n), cubes)
		_, after := m.UniqueStats()
		if got, want := int(after-before), dagSize(m, f); got != want {
			t.Fatalf("trial %d: created %d nodes for a %d-node result", trial, got, want)
		}
	}
}

// TestCubeSetSharedSublists is the shape that needs the memo: cube l asks
// for zeros in the low 32-l address bits and l in a length field, with the
// address bits above the length bits in the order. Undecided cubes ride both
// branches of every address level, so the surviving lists recur along 2^32
// paths but take only 33 distinct values.
func TestCubeSetSharedSublists(t *testing.T) {
	const addr, length = 32, 6
	m := New(addr + length)
	vars := make([]int, addr+length) // address bits, then the length field
	for i := range vars {
		vars[i] = i
	}
	var cubes []BitCube
	for l := 0; l <= addr; l++ {
		zeros := uint64(1)<<(addr-l) - 1
		cubes = append(cubes, BitCube{Care: zeros<<length | (1<<length - 1), Val: uint64(l)})
	}
	_, before := m.UniqueStats()
	f := m.CubeSet(vars, cubes)
	_, after := m.UniqueStats()
	if got, want := int(after-before), dagSize(m, f); got != want {
		t.Errorf("created %d nodes for a %d-node result", got, want)
	}
	if got, want := m.SatCount(f), float64(uint64(1)<<33-1); got != want {
		t.Errorf("SatCount = %v, want %v (one point per canonical prefix)", got, want)
	}
}

func TestCubeSetPanics(t *testing.T) {
	for name, tc := range map[string]struct {
		vars []int
		care uint64
	}{
		"repeated variable":     {[]int{0, 1, 0}, 1},
		"over 64 variables":     {make([]int, 65), 1},
		"Care wider than vars":  {[]int{0, 1, 2}, 1 << 3},
		"Care wholly off field": {[]int{0}, 1 << 40},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CubeSet did not panic", name)
				}
			}()
			New(80).CubeSet(tc.vars, []BitCube{{Care: tc.care, Val: 1}})
		}()
	}
}
