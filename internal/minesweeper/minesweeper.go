// Package minesweeper implements the Minesweeper* baseline of the paper
// (§7, Appendix C): a Minesweeper-style SMT encoding of the network control
// plane, extended to check routing properties such as RouteLeakFree and
// BlockToExternal under arbitrary external routes.
//
// The encoding follows Minesweeper's stable-state formulation: one record
// of symbolic route attributes per router, one candidate record per
// session, selection constraints implementing the BGP decision process, and
// a global symbolic prefix (Appendix C's extension). External neighbors
// contribute free advertisement variables (does the neighbor advertise the
// symbolic prefix?) with unconstrained attributes. A hop-counter attribute
// enforces well-foundedness of the stable state (no ghost route cycles).
//
// Everything is bit-blasted through internal/smt onto the CDCL solver in
// internal/sat — the stand-in for Z3 (see DESIGN.md, substitutions).
package minesweeper

import (
	"fmt"
	"time"

	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/sat"
	"github.com/expresso-verify/expresso/internal/smt"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Options bound a check's effort, mirroring the paper's one-day timeout.
type Options struct {
	// ConflictBudget caps solver conflicts per query (0 = unlimited).
	ConflictBudget int64
	// Timeout caps wall-clock time across the whole check (0 = unlimited).
	Timeout time.Duration
}

// Report summarizes a Minesweeper* check.
type Report struct {
	// Violations counts violating (router, neighbor) export points found.
	Violations int
	// Queries is the number of SAT queries issued.
	Queries int
	// Clauses and Vars record the size of the largest encoding.
	Clauses, Vars int
	// TimedOut reports whether the budget expired before completion.
	TimedOut bool
}

const (
	lpWidth   = 16
	lenWidth  = 8
	hopWidth  = 8
	maxHops   = 200
	defaultLP = route.DefaultLocalPref
)

// rec is a symbolic route record: Minesweeper's per-router attribute tuple.
type rec struct {
	exists     sat.Lit
	lp         smt.BV
	aspLen     smt.BV
	hops       smt.BV
	comm       []sat.Lit // one presence bit per community atom
	orig       smt.BV    // node id of the originator
	fromEBGP   sat.Lit
	viaIBGP    sat.Lit // learned from an iBGP session
	fromClient sat.Lit // learned from a route-reflector client
}

// encoder holds per-query encoding state.
type encoder struct {
	net   *topology.Network
	atoms *community.Atoms
	c     *smt.Ctx

	nodeID  map[string]uint64
	idWidth int

	pfxAddr smt.BV // 32 bits, global symbolic prefix
	pfxLen  smt.BV // 6 bits

	best map[string]rec
}

func newEncoder(net *topology.Network) *encoder {
	devices := make([]*config.Device, 0, len(net.Internals))
	for _, n := range net.Internals {
		devices = append(devices, net.Devices[n])
	}
	e := &encoder{
		net:    net,
		atoms:  community.ComputeAtoms(devices),
		c:      smt.NewCtx(),
		nodeID: map[string]uint64{},
		best:   map[string]rec{},
	}
	id := uint64(1) // 0 is "no originator"
	for _, n := range net.Internals {
		e.nodeID[n] = id
		id++
	}
	for _, n := range net.Externals {
		e.nodeID[n] = id
		id++
	}
	e.idWidth = 1
	for 1<<e.idWidth < int(id) {
		e.idWidth++
	}
	e.pfxAddr = e.c.NewBV(32)
	e.pfxLen = e.c.NewBV(6)
	e.c.Assert(e.c.UleBV(e.pfxLen, e.c.ConstBV(32, 6)))
	return e
}

func (e *encoder) newRec() rec {
	r := rec{
		exists:     e.c.NewBool(),
		lp:         e.c.NewBV(lpWidth),
		aspLen:     e.c.NewBV(lenWidth),
		hops:       e.c.NewBV(hopWidth),
		comm:       make([]sat.Lit, e.atoms.Count),
		orig:       e.c.NewBV(e.idWidth),
		fromEBGP:   e.c.NewBool(),
		viaIBGP:    e.c.NewBool(),
		fromClient: e.c.NewBool(),
	}
	for i := range r.comm {
		r.comm[i] = e.c.NewBool()
	}
	return r
}

func (e *encoder) deadRec() rec {
	r := rec{
		exists:     e.c.False(),
		lp:         e.c.ConstBV(0, lpWidth),
		aspLen:     e.c.ConstBV(0, lenWidth),
		hops:       e.c.ConstBV(0, hopWidth),
		comm:       make([]sat.Lit, e.atoms.Count),
		orig:       e.c.ConstBV(0, e.idWidth),
		fromEBGP:   e.c.False(),
		viaIBGP:    e.c.False(),
		fromClient: e.c.False(),
	}
	for i := range r.comm {
		r.comm[i] = e.c.False()
	}
	return r
}

// muxRec returns sel ? a : b.
func (e *encoder) muxRec(sel sat.Lit, a, b rec) rec {
	out := rec{
		exists:     e.c.MuxBool(sel, a.exists, b.exists),
		lp:         e.c.MuxBV(sel, a.lp, b.lp),
		aspLen:     e.c.MuxBV(sel, a.aspLen, b.aspLen),
		hops:       e.c.MuxBV(sel, a.hops, b.hops),
		comm:       make([]sat.Lit, len(a.comm)),
		orig:       e.c.MuxBV(sel, a.orig, b.orig),
		fromEBGP:   e.c.MuxBool(sel, a.fromEBGP, b.fromEBGP),
		viaIBGP:    e.c.MuxBool(sel, a.viaIBGP, b.viaIBGP),
		fromClient: e.c.MuxBool(sel, a.fromClient, b.fromClient),
	}
	for i := range out.comm {
		out.comm[i] = e.c.MuxBool(sel, a.comm[i], b.comm[i])
	}
	return out
}

// prefixMatchLit encodes "the global symbolic prefix satisfies spec m".
func (e *encoder) prefixMatchLit(m config.PrefixMatch) sat.Lit {
	g := e.c.True()
	for b := 0; b < int(m.Prefix.Len); b++ {
		bit := m.Prefix.Addr&(1<<(31-b)) != 0
		l := e.pfxAddr[b]
		if !bit {
			l = l.Not()
		}
		g = e.c.And(g, l)
	}
	g = e.c.And(g, e.c.UleBV(e.c.ConstBV(uint64(m.GE), 6), e.pfxLen))
	g = e.c.And(g, e.c.UleBV(e.pfxLen, e.c.ConstBV(uint64(m.LE), 6)))
	return g
}

// prefixEqLit encodes "the global symbolic prefix equals p".
func (e *encoder) prefixEqLit(p route.Prefix) sat.Lit {
	return e.c.And(
		e.c.EqBV(e.pfxAddr, e.c.ConstBV(uint64(p.Addr), 32)),
		e.c.EqBV(e.pfxLen, e.c.ConstBV(uint64(p.Len), 6)),
	)
}

// nodeMatchLit encodes a policy node's match conditions against a record.
func (e *encoder) nodeMatchLit(n *config.PolicyNode, r rec) sat.Lit {
	g := e.c.True()
	if len(n.MatchPrefixes) > 0 {
		any := e.c.False()
		for _, m := range n.MatchPrefixes {
			any = e.c.Or(any, e.prefixMatchLit(m))
		}
		g = e.c.And(g, any)
	}
	if len(n.MatchCommunities) > 0 {
		any := e.c.False()
		for _, expr := range n.MatchCommunities {
			for _, atom := range e.atoms.ExprAtoms(expr) {
				any = e.c.Or(any, r.comm[atom])
			}
		}
		g = e.c.And(g, any)
	}
	// AS-path regex matches are not modeled (Minesweeper makes only the
	// AS-path length symbolic); they conservatively match nothing, like
	// the paper's Minesweeper*.
	if n.MatchASPath != "" {
		g = e.c.False()
	}
	return g
}

// applyActions returns r with the node's actions applied.
func (e *encoder) applyActions(n *config.PolicyNode, r rec) rec {
	out := r
	out.comm = append([]sat.Lit(nil), r.comm...)
	for _, a := range n.Actions {
		switch a.Kind {
		case config.ActSetLocalPref:
			out.lp = e.c.ConstBV(uint64(a.Value), lpWidth)
		case config.ActSetMED:
			// MED is not part of the record (concrete defaults), ignore.
		case config.ActAddCommunity:
			out.comm[e.atoms.AtomOf(a.Community)] = e.c.True()
		case config.ActDeleteCommunity:
			for _, atom := range e.atoms.ExprAtoms(a.CommunityExpr) {
				out.comm[atom] = e.c.False()
			}
		case config.ActPrependASPath:
			out.aspLen = e.c.IncBV(out.aspLen)
		}
	}
	return out
}

// applyPolicy encodes a route policy as a nested if-then-else over the
// record; unmatched routes are denied.
func (e *encoder) applyPolicy(pol *config.Policy, r rec) rec {
	if pol == nil {
		return r
	}
	out := e.deadRec()
	// Build the chain from the last node backward.
	for i := len(pol.Nodes) - 1; i >= 0; i-- {
		n := pol.Nodes[i]
		var branch rec
		if n.Permit {
			branch = e.applyActions(n, r)
		} else {
			branch = e.deadRec()
		}
		out = e.muxRec(e.nodeMatchLit(n, r), branch, out)
	}
	out.exists = e.c.And(out.exists, r.exists)
	return out
}

// betterOrEq encodes the BGP decision process preference a >= b.
func (e *encoder) betterOrEq(a, b rec) sat.Lit {
	lpGt := e.c.UgtBV(a.lp, b.lp)
	lpEq := e.c.EqBV(a.lp, b.lp)
	lenLt := e.c.UltBV(a.aspLen, b.aspLen)
	lenEq := e.c.EqBV(a.aspLen, b.aspLen)
	ebgpGe := e.c.Or(a.fromEBGP, b.fromEBGP.Not())
	return e.c.Or(lpGt, e.c.And(lpEq, e.c.Or(lenLt, e.c.And(lenEq, ebgpGe))))
}

// encodeNetwork builds the stable-state constraints and returns the records
// exported toward each external neighbor: exported[router][external].
func (e *encoder) encodeNetwork() map[string]map[string]rec {
	c := e.c
	// Best records (free variables, constrained below).
	for _, u := range e.net.Internals {
		e.best[u] = e.newRec()
	}
	// External advertised records: free attributes gated on adv bit.
	extRec := map[string]rec{}
	for _, x := range e.net.Externals {
		r := e.newRec() // exists stays a free advertisement variable
		c.AssertEqBV(r.lp, c.ConstBV(defaultLP, lpWidth))
		// The first AS of an eBGP route is the neighbor's: length >= 1.
		c.Assert(c.UgtBV(r.aspLen, c.ConstBV(0, lenWidth)))
		c.AssertEqBV(r.hops, c.ConstBV(0, hopWidth))
		c.AssertEqBV(r.orig, c.ConstBV(e.nodeID[x], e.idWidth))
		c.Assert(r.fromEBGP)
		c.Assert(r.viaIBGP.Not())
		c.Assert(r.fromClient.Not())
		extRec[x] = r
	}

	for _, u := range e.net.Internals {
		du := e.net.Devices[u]
		var candidates []rec
		// Local origination.
		var prefixes []route.Prefix
		prefixes = append(prefixes, du.Networks...)
		if du.RedistributeConnected {
			for _, itf := range du.Interfaces {
				prefixes = append(prefixes, itf.Prefix)
			}
		}
		if du.RedistributeStatic {
			for _, st := range du.Statics {
				prefixes = append(prefixes, st.Prefix)
			}
		}
		originates := c.False()
		for _, p := range prefixes {
			originates = c.Or(originates, e.prefixEqLit(p))
		}
		local := e.deadRec()
		local.exists = originates
		local.lp = c.ConstBV(defaultLP, lpWidth)
		local.orig = c.ConstBV(e.nodeID[u], e.idWidth)
		candidates = append(candidates, local)

		for _, w := range e.net.Neighbors(u) {
			sv := e.net.Session(u, w)
			if sv == nil {
				continue
			}
			var in rec
			if e.net.IsInternal(w) {
				sw := e.net.Session(w, u)
				if sw == nil {
					continue
				}
				in = e.exportRec(w, u, sw)
			} else {
				in = extRec[w]
			}
			cand := e.applyPolicy(du.Policy(sv.Import), in)
			if fromEBGP := !e.net.IsIBGP(u, w); fromEBGP {
				cand.fromEBGP = c.True()
				cand.viaIBGP = c.False()
			} else {
				cand.fromEBGP = c.False()
				cand.viaIBGP = c.True()
			}
			// fromClient marks routes learned over one of u's own
			// reflect-client sessions (used by u's re-advertisement rule).
			if sv.ReflectClient {
				cand.fromClient = cand.exists
			} else {
				cand.fromClient = c.False()
			}
			// Well-foundedness: the supplier's hop counter increases.
			cand.hops = c.IncBV(in.hops)
			c.Assert(c.Implies(cand.exists, c.UltBV(in.hops, c.ConstBV(maxHops, hopWidth))))
			candidates = append(candidates, cand)
		}

		// Selection: best exists iff some candidate exists; best equals a
		// selected candidate; best is better-or-equal to every candidate.
		b := e.best[u]
		anyExists := c.False()
		for _, cand := range candidates {
			anyExists = c.Or(anyExists, cand.exists)
		}
		c.Assert(c.Iff(b.exists, anyExists))
		sels := make([]sat.Lit, len(candidates))
		atLeastOne := c.False()
		for i, cand := range candidates {
			sel := c.NewBool()
			sels[i] = sel
			c.Assert(c.Implies(sel, cand.exists))
			c.Assert(c.Implies(sel, e.eqRec(b, cand)))
			c.Assert(c.Implies(cand.exists, e.betterOrEq(b, cand)))
			atLeastOne = c.Or(atLeastOne, sel)
		}
		c.Assert(c.Implies(b.exists, atLeastOne))
	}

	// Exported records toward externals.
	exported := map[string]map[string]rec{}
	for _, u := range e.net.Internals {
		exported[u] = map[string]rec{}
		for _, x := range e.net.Externals {
			su := e.net.Session(u, x)
			if su == nil {
				continue
			}
			exported[u][x] = e.exportRec(u, x, su)
		}
	}
	return exported
}

// eqRec encodes record equality on the preference-relevant and tracked
// attributes.
func (e *encoder) eqRec(a, b rec) sat.Lit {
	g := e.c.AndN(
		e.c.EqBV(a.lp, b.lp),
		e.c.EqBV(a.aspLen, b.aspLen),
		e.c.EqBV(a.hops, b.hops),
		e.c.EqBV(a.orig, b.orig),
		e.c.Iff(a.fromEBGP, b.fromEBGP),
		e.c.Iff(a.viaIBGP, b.viaIBGP),
		e.c.Iff(a.fromClient, b.fromClient),
	)
	for i := range a.comm {
		g = e.c.And(g, e.c.Iff(a.comm[i], b.comm[i]))
	}
	return g
}

// exportRec encodes what router w advertises to neighbor v over session s.
func (e *encoder) exportRec(w, v string, s *config.Peer) rec {
	c := e.c
	dw := e.net.Devices[w]
	b := e.best[w]
	out := e.applyPolicy(dw.Policy(s.Export), b)
	if s.AdvertiseDefault {
		// Only a default route is sent on this session.
		def := e.deadRec()
		def.exists = e.prefixEqLit(route.Prefix{})
		def.lp = c.ConstBV(defaultLP, lpWidth)
		def.orig = c.ConstBV(e.nodeID[w], e.idWidth)
		return def
	}
	if !s.AdvertiseCommunity {
		for i := range out.comm {
			out.comm[i] = c.False()
		}
	}
	toIBGP := e.net.IsIBGP(w, v)
	if !toIBGP {
		out.aspLen = c.IncBV(out.aspLen)
		out.lp = c.ConstBV(defaultLP, lpWidth)
	} else {
		// iBGP non-transit: re-advertise only eBGP-learned or local routes,
		// unless reflection applies.
		allowed := c.OrN(b.viaIBGP.Not(), b.fromClient)
		if s.ReflectClient {
			allowed = c.True()
		}
		out.exists = c.And(out.exists, allowed)
	}
	return out
}

// CheckRouteLeak runs the RouteLeakFree check: one SAT query per external
// neighbor, asking whether it can receive a route originated by a different
// external neighbor.
func CheckRouteLeak(net *topology.Network, opts Options) (*Report, error) {
	return check(net, opts, func(e *encoder, target string, exported map[string]map[string]rec) sat.Lit {
		c := e.c
		violation := c.False()
		for _, u := range e.net.Neighbors(target) {
			r, ok := exported[u][target]
			if !ok {
				continue
			}
			isOtherExternal := c.False()
			for _, x := range e.net.Externals {
				if x == target {
					continue
				}
				isOtherExternal = c.Or(isOtherExternal,
					c.EqBV(r.orig, c.ConstBV(e.nodeID[x], e.idWidth)))
			}
			violation = c.Or(violation, c.And(r.exists, isOtherExternal))
		}
		return violation
	})
}

// CheckBlockToExternal runs the BlockToExternal check for the given
// community: one SAT query per external neighbor.
func CheckBlockToExternal(net *topology.Network, bte route.Community, opts Options) (*Report, error) {
	return check(net, opts, func(e *encoder, target string, exported map[string]map[string]rec) sat.Lit {
		c := e.c
		atom := e.atoms.AtomOf(bte)
		violation := c.False()
		for _, u := range e.net.Neighbors(target) {
			r, ok := exported[u][target]
			if !ok {
				continue
			}
			violation = c.Or(violation, c.And(r.exists, r.comm[atom]))
		}
		return violation
	})
}

func check(net *topology.Network, opts Options,
	property func(*encoder, string, map[string]map[string]rec) sat.Lit) (*Report, error) {

	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	rep := &Report{}
	for _, target := range net.Externals {
		if !deadline.IsZero() && time.Now().After(deadline) {
			rep.TimedOut = true
			break
		}
		e := newEncoder(net)
		exported := e.encodeNetwork()
		e.c.Assert(property(e, target, exported))
		e.c.S.ConflictBudget = opts.ConflictBudget
		e.c.S.Deadline = deadline
		rep.Queries++
		if e.c.S.NumClauses() > rep.Clauses {
			rep.Clauses = e.c.S.NumClauses()
			rep.Vars = e.c.S.NumVars()
		}
		ok, _, err := e.c.S.Solve()
		if err == sat.ErrBudget {
			rep.TimedOut = true
			break
		}
		if err != nil {
			return rep, fmt.Errorf("minesweeper: %v", err)
		}
		if ok {
			rep.Violations++
		}
	}
	return rep, nil
}
