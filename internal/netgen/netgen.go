// Package netgen synthesizes the evaluation datasets of the paper (Table 1)
// as real configuration text: the CSP WAN snapshots (four regions, the full
// old snapshot, and the larger new snapshot) and an Internet2-like network.
//
// The paper's datasets are proprietary (CSP) or external (Internet2); the
// generator reproduces their scale parameters (nodes, links, peers,
// prefixes, config lines) and seeds the misconfiguration archetypes of
// Figure 5:
//
//   - route leaks: advertise-community missing on the route-reflector
//     sessions toward a victim peering router, so the communities that mark
//     external routes are stripped before its export filters test them;
//   - route hijacks: a mistaken permit entry (with raised local preference)
//     ahead of the internal-prefix deny list in one peer's import policy;
//   - traffic hijacks: the reflectors' export policy toward one peering
//     router denies an internal prefix, leaving that router with only an
//     externally learned default route for it.
//
// See DESIGN.md ("Substitutions") for why this preserves the evaluation's
// shape.
package netgen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/expresso-verify/expresso/internal/route"
)

// CSPSpec parameterizes a CSP WAN snapshot.
type CSPSpec struct {
	// Name is a label used in router names.
	Name string
	// Seed drives all pseudo-random choices.
	Seed int64
	// Backbones is the number of route-reflector routers.
	Backbones int
	// PeeringRouters is the number of peering routers (reflector clients).
	PeeringRouters int
	// Peers is the number of external neighbors.
	Peers int
	// Prefixes is the number of internal prefixes (bgp network statements).
	Prefixes int
	// CustomerPrefixLines scales the per-peer expected-customer prefix
	// lists (drives the config-line counts of Table 1). Total customer
	// entries ≈ CustomerPrefixLines.
	CustomerPrefixLines int
	// LeakBugs, HijackBugs, TrafficBugs seed the violation archetypes.
	LeakBugs, HijackBugs, TrafficBugs int
}

// InternalAS is the CSP WAN's AS number.
const InternalAS = 100

// Tag is the community marking externally learned routes (the "never
// export to peers" tag of Figure 4).
const Tag = "100:666"

// TagCommunity returns Tag parsed.
func TagCommunity() route.Community { return route.MustParseCommunity(Tag) }

// CSP generates the configuration text of a CSP WAN snapshot.
func CSP(spec CSPSpec) string {
	r := rand.New(rand.NewSource(spec.Seed))
	var b strings.Builder
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	bbName := func(i int) string { return fmt.Sprintf("%sBB%d", spec.Name, i) }
	prName := func(j int) string { return fmt.Sprintf("%sPR%d", spec.Name, j) }
	extName := func(k int) string { return fmt.Sprintf("%sISP%d", spec.Name, k) }

	// Internal prefixes: 10.a.b.0/24, round-robin across backbones.
	internalPrefix := func(i int) string {
		return fmt.Sprintf("10.%d.%d.0/24", (i/250)%250, i%250)
	}
	// Expected customer prefixes per peer: 20.a.b.0/24.
	customerPrefix := func(i int) string {
		return fmt.Sprintf("20.%d.%d.0/24", (i/250)%250, i%250)
	}

	// Peer distribution: peer k attaches to PR (k % PRs).
	peersOf := make([][]int, spec.PeeringRouters)
	for k := 0; k < spec.Peers; k++ {
		j := k % spec.PeeringRouters
		peersOf[j] = append(peersOf[j], k)
	}
	// Each PR connects to two backbones.
	bbOf := func(j int) [2]int {
		if spec.Backbones == 1 {
			return [2]int{0, 0}
		}
		return [2]int{j % spec.Backbones, (j + 1) % spec.Backbones}
	}

	// Bug placement (deterministic via the seeded generator).
	leakVictims := map[int]bool{}   // PR index
	trafficVictims := map[int]int{} // PR index -> denied internal prefix index
	hijackSites := map[int]int{}    // peer index -> permitted internal prefix index
	pickPR := func(used map[int]bool) int {
		for {
			j := r.Intn(spec.PeeringRouters)
			if !used[j] {
				used[j] = true
				return j
			}
		}
	}
	usedPRs := map[int]bool{}
	for i := 0; i < spec.LeakBugs && len(leakVictims) < spec.PeeringRouters; i++ {
		leakVictims[pickPR(usedPRs)] = true
	}
	for i := 0; i < spec.TrafficBugs && len(trafficVictims) < spec.PeeringRouters-len(leakVictims); i++ {
		trafficVictims[pickPR(usedPRs)] = r.Intn(spec.Prefixes)
	}
	for i := 0; i < spec.HijackBugs && spec.Peers > 0; i++ {
		hijackSites[r.Intn(spec.Peers)] = r.Intn(spec.Prefixes)
	}

	custPerPeer := 1
	if spec.Peers > 0 && spec.CustomerPrefixLines > spec.Peers {
		custPerPeer = spec.CustomerPrefixLines / spec.Peers
	}
	custCursor := 0

	// ---- Backbone routers (route reflectors). ----
	for i := 0; i < spec.Backbones; i++ {
		w("router %s", bbName(i))
		w("bgp as %d", InternalAS)
		w("bgp router-id 1.0.0.%d", i+1)
		w("interface lo0 ip 172.16.0.%d/31", (i%120)*2)
		w("bgp redistribute connected")
		for p := i; p < spec.Prefixes; p += spec.Backbones {
			w("bgp network %s", internalPrefix(p))
		}
		// Traffic-bug export policies toward victim PRs, in PR order (ranging
		// over the map would order them differently on every run).
		for j := 0; j < spec.PeeringRouters; j++ {
			if pfx, ok := trafficVictims[j]; ok {
				w("route-policy extraffic%d deny node 5", j)
				w(" if-match prefix %s", internalPrefix(pfx))
				w("route-policy extraffic%d permit node 10", j)
			}
		}
		// Sessions to the other backbones.
		for o := 0; o < spec.Backbones; o++ {
			if o == i {
				continue
			}
			w("bgp peer %s AS %d advertise-community", bbName(o), InternalAS)
		}
		// Sessions to client PRs.
		for j := 0; j < spec.PeeringRouters; j++ {
			bbs := bbOf(j)
			if bbs[0] != i && bbs[1] != i {
				continue
			}
			opts := "reflect-client"
			if !leakVictims[j] {
				opts += " advertise-community"
			}
			if pfx, ok := trafficVictims[j]; ok {
				_ = pfx
				opts += fmt.Sprintf(" export extraffic%d", j)
			}
			w("bgp peer %s AS %d %s", prName(j), InternalAS, opts)
		}
		w("")
	}

	// ---- Peering routers. ----
	for j := 0; j < spec.PeeringRouters; j++ {
		w("router %s", prName(j))
		w("bgp as %d", InternalAS)
		w("bgp router-id 2.0.0.%d", j%250+1)
		w("interface lo0 ip 172.16.%d.%d/31", j/120+1, (j%120)*2)
		w("bgp redistribute connected")
		// Shared export policy: never export tagged (external) routes.
		w("route-policy exout deny node 5")
		w(" if-match community %s", Tag)
		w("route-policy exout permit node 10")
		// Per-peer import policies.
		for _, k := range peersOf[j] {
			pol := fmt.Sprintf("im%d", k)
			if pfx, ok := hijackSites[k]; ok {
				// The Violation 2 archetype: a mistaken permit entry with
				// raised local preference ahead of the internal deny list.
				w("route-policy %s permit node 3", pol)
				w(" if-match prefix %s", internalPrefix(pfx))
				w(" set local-preference 200")
				w(" add community %s", Tag)
			}
			w("route-policy %s deny node 5", pol)
			w(" if-match prefix 10.0.0.0/8 ge 8")
			w("route-policy %s deny node 6", pol)
			w(" if-match prefix 172.16.0.0/12 ge 12")
			w("route-policy %s permit node 10", pol)
			for c := 0; c < custPerPeer; c++ {
				w(" if-match prefix %s", customerPrefix(custCursor%62500))
				custCursor++
			}
			w(" set local-preference 120")
			w(" add community %s", Tag)
			w("route-policy %s permit node 20", pol)
			w(" add community %s", Tag)
		}
		// Sessions to backbones.
		bbs := bbOf(j)
		w("bgp peer %s AS %d advertise-community", bbName(bbs[0]), InternalAS)
		if bbs[1] != bbs[0] {
			w("bgp peer %s AS %d advertise-community", bbName(bbs[1]), InternalAS)
		}
		// Sessions to external peers.
		for _, k := range peersOf[j] {
			w("bgp peer %s AS %d import im%d export exout", extName(k), 1000+k, k)
		}
		w("")
	}
	return b.String()
}

// Table 1 dataset specifications. Sizes follow the order-of-magnitude
// statistics reported by the paper.

// CSPOldRegion returns the spec of one region of the old snapshot (1-4).
func CSPOldRegion(i int) CSPSpec {
	switch i {
	case 1:
		return CSPSpec{Name: "r1", Seed: 101, Backbones: 2, PeeringRouters: 8,
			Peers: 10, Prefixes: 200, CustomerPrefixLines: 6000,
			LeakBugs: 0, HijackBugs: 1, TrafficBugs: 0}
	case 2:
		return CSPSpec{Name: "r2", Seed: 102, Backbones: 1, PeeringRouters: 4,
			Peers: 20, Prefixes: 400, CustomerPrefixLines: 6000,
			LeakBugs: 0, HijackBugs: 0, TrafficBugs: 1}
	case 3:
		return CSPSpec{Name: "r3", Seed: 103, Backbones: 2, PeeringRouters: 8,
			Peers: 20, Prefixes: 600, CustomerPrefixLines: 12000,
			LeakBugs: 1, HijackBugs: 1, TrafficBugs: 1}
	case 4:
		return CSPSpec{Name: "r4", Seed: 104, Backbones: 2, PeeringRouters: 8,
			Peers: 40, Prefixes: 2000, CustomerPrefixLines: 18000,
			LeakBugs: 0, HijackBugs: 1, TrafficBugs: 1}
	default:
		panic(fmt.Sprintf("netgen: no region %d", i))
	}
}

// CSPOldFull returns the spec of the full old snapshot: ~30 nodes, ~90
// peers, ~3k prefixes, seeded to land near Table 2's old-snapshot violation
// counts (3 leaks / 53 hijacks / 7 traffic hijacks).
func CSPOldFull() CSPSpec {
	return CSPSpec{Name: "w", Seed: 100, Backbones: 6, PeeringRouters: 24,
		Peers: 90, Prefixes: 3200, CustomerPrefixLines: 45000,
		LeakBugs: 1, HijackBugs: 2, TrafficBugs: 3}
}

// CSPNewFull returns the spec of the new snapshot: ~130 nodes, ~220 peers,
// ~10k prefixes, seeded near Table 2's new-snapshot counts (36/70/18).
func CSPNewFull() CSPSpec {
	return CSPSpec{Name: "n", Seed: 200, Backbones: 20, PeeringRouters: 110,
		Peers: 220, Prefixes: 10000, CustomerPrefixLines: 180000,
		LeakBugs: 12, HijackBugs: 3, TrafficBugs: 8}
}

// WithPeers returns a copy of the spec restricted to n external peers
// (Figure 6a varies the number of neighbors); n <= 0 keeps them all.
func (s CSPSpec) WithPeers(n int) CSPSpec {
	if n > 0 && n < s.Peers {
		s.Peers = n
	}
	return s
}
