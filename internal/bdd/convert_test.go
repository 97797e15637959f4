package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// convertVars is the universe convertCase draws from: one byte of a cube
// spec covers it.
const convertVars = 8

// convertReference is Convert done the slow way: one Restrict per fixed
// variable, then a rename that rebuilds every node with ITE, which is
// exact under any order because it never assumes where an image sits.
func convertReference(m *Manager, n Node, fix map[int]bool, rename map[int]int) Node {
	for v, val := range fix {
		n = m.Restrict(n, v, val)
	}
	w := m.NewWorker()
	memo := map[Node]Node{}
	var rec func(Node) Node
	rec = func(x Node) Node {
		if x == True || x == False {
			return x
		}
		if r, ok := memo[x]; ok {
			return r
		}
		v := int(m.level2var[m.level(x)])
		if img, ok := rename[v]; ok {
			v = img
		}
		r := w.ITE(m.Var(v), rec(m.high(x)), rec(m.low(x)))
		memo[x] = r
		return r
	}
	return rec(n)
}

// convertCase decodes a Convert problem from spec under the static order
// orderSeed draws (identity when scramble is false). The first
// convertVars bytes give each variable a role — untouched, fixed false,
// fixed true, renamed, or absent from the function (free to be an image)
// — and a shuffle of the image pool; the rest are (care, value) byte
// pairs, the cubes the function is the union of.
func convertCase(orderSeed int64, scramble bool, spec []byte) (m *Manager, f Node, fix map[int]bool, rename map[int]int) {
	m = New(convertVars)
	rng := rand.New(rand.NewSource(orderSeed))
	if scramble {
		if err := m.SetOrder(rng.Perm(convertVars)); err != nil {
			panic(err)
		}
	}
	role := make([]byte, convertVars)
	for v := range role {
		if v < len(spec) {
			role[v] = spec[v] % 5
		}
	}
	fix = map[int]bool{}
	var renamed, pool []int
	support := 0
	for v, r := range role {
		switch r {
		case 0:
			support |= 1 << v
		case 1, 2:
			fix[v] = r == 2
			support |= 1 << v
		case 3:
			renamed = append(renamed, v)
			pool = append(pool, v)
			support |= 1 << v
		case 4:
			pool = append(pool, v)
		}
	}
	// Images come from the renamed variables and the absent ones, so a
	// mapping may permute, shift into fresh variables, or both; whether it
	// keeps the level order is up to the draw.
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	rename = map[int]int{}
	for i, v := range renamed {
		rename[v] = pool[i]
	}
	f = False
	for i := convertVars; i+1 < len(spec); i += 2 {
		care, val := int(spec[i])&support, int(spec[i+1])
		cube := True
		for v := 0; v < convertVars; v++ {
			if care&(1<<v) == 0 {
				continue
			}
			lit := m.Var(v)
			if val&(1<<v) == 0 {
				lit = m.Not(lit)
			}
			cube = m.And(cube, lit)
		}
		f = m.Or(f, cube)
	}
	return m, f, fix, rename
}

// checkConvert holds Convert to the reference, handle for handle, and its
// kept images to the reference result's support.
func checkConvert(t *testing.T, m *Manager, f Node, fix map[int]bool, rename map[int]int) {
	t.Helper()
	got, kept := m.NewWorker().Convert(f, fix, rename)
	want := convertReference(m, f, fix, rename)
	if got != want {
		t.Fatalf("Convert under order %v, fix %v, rename %v: got %v, want %v", m.Order(), fix, rename, got, want)
	}
	images := map[int]bool{}
	for _, img := range rename {
		images[img] = true
	}
	var wantKept []int
	for _, v := range m.Support(want) {
		if images[v] {
			wantKept = append(wantKept, v)
		}
	}
	if fmt.Sprint(kept) != fmt.Sprint(wantKept) {
		t.Fatalf("Convert under order %v, rename %v: kept %v, the result depends on %v", m.Order(), rename, kept, wantKept)
	}
}

// TestConvertMatchesReference holds the one-pass kernel to the
// restrict-then-ITE-rename reference on random functions, under the
// initial order and under scrambled static orders, where an image can sit
// anywhere relative to the rebuilt children.
func TestConvertMatchesReference(t *testing.T) {
	for _, scramble := range []bool{false, true} {
		t.Run(map[bool]string{false: "initial", true: "scrambled"}[scramble], func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 400; trial++ {
				spec := make([]byte, convertVars+2*(1+rng.Intn(8)))
				rng.Read(spec)
				m, f, fix, rename := convertCase(rng.Int63(), scramble, spec)
				checkConvert(t, m, f, fix, rename)
			}
		})
	}
	// A swap under an order that puts the two variables' images below the
	// other variables is not level-monotone: the fast path alone would
	// build a node above a child of its own level or lower.
	t.Run("not-monotone", func(t *testing.T) {
		m := New(4)
		if err := m.SetOrder([]int{2, 0, 3, 1}); err != nil {
			t.Fatal(err)
		}
		f := m.Or(m.And(m.Var(0), m.Var(1)), m.And(m.Not(m.Var(0)), m.Var(3)))
		checkConvert(t, m, f, map[int]bool{3: true}, map[int]int{0: 1, 1: 2})
		checkConvert(t, m, f, nil, map[int]int{0: 1, 1: 0})
	})
}

// FuzzConvert explores the same comparison: the seed picks a static
// order, the bytes the variables' roles and a cube list (see convertCase).
// The kernel must agree with the reference, handle for handle, under
// every order and every mapping the contract admits.
func FuzzConvert(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		spec := make([]byte, convertVars+2*(1+i%6))
		rng.Read(spec)
		f.Add(rng.Int63(), spec)
	}
	f.Add(int64(0), []byte{3, 3, 3, 3, 4, 4, 4, 4, 0xFF, 0x0F, 0x0F, 0xF0})
	f.Add(int64(1), []byte{1, 2, 3, 0, 3, 4, 3, 4, 0xFF, 0xAA, 0x55, 0x55})
	f.Fuzz(func(t *testing.T, orderSeed int64, spec []byte) {
		if len(spec) > 2*64 {
			spec = spec[:2*64]
		}
		m, fn, fix, rename := convertCase(orderSeed, true, spec)
		checkConvert(t, m, fn, fix, rename)
	})
}

// TestCofactorMatchesRestrict holds Cofactor to one Restrict per fixed
// variable on random functions, with the fixed variables on top of the
// order (the walk, which must allocate nothing and build no node) and
// under scrambled orders (the rebuild).
func TestCofactorMatchesRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		spec := make([]byte, convertVars+2*(1+rng.Intn(8)))
		rng.Read(spec)
		scramble := trial%2 == 1
		m, f, _, _ := convertCase(rng.Int63(), scramble, spec)
		vars := []int{0, 1, 2}[:1+rng.Intn(3)] // the topmost under the identity order
		if scramble {
			vars = rng.Perm(convertVars)[:1+rng.Intn(4)]
		}
		val := uint64(rng.Intn(1 << len(vars)))
		want := f
		for k, v := range vars {
			want = m.Restrict(want, v, val>>(len(vars)-1-k)&1 != 0)
		}
		_, before := m.UniqueStats()
		var got Node
		allocs := testing.AllocsPerRun(1, func() { got = m.Cofactor(f, vars, val) })
		if got != want {
			t.Fatalf("Cofactor(vars %v = %b) under order %v: got %v, want %v", vars, val, m.Order(), got, want)
		}
		if _, after := m.UniqueStats(); !scramble && (allocs != 0 || after != before) {
			t.Fatalf("Cofactor over the top levels allocated %.0f objects and built %d nodes, want none", allocs, after-before)
		}
	}
}
