package netgen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/expresso-verify/expresso/internal/route"
)

// I2Spec parameterizes the Internet2-like dataset (§7.3, Table 4).
type I2Spec struct {
	Seed     int64
	Routers  int
	Peers    int
	Prefixes int
	// BTEFraction is the fraction of import sessions that tag routes with
	// the BTE community.
	BTEFraction float64
	// MissingBTEFilters is the number of export sessions whose policy
	// forgot the BTE deny (the Table 4 violations).
	MissingBTEFilters int
	// CustomerPrefixLines scales per-peer expected-prefix lists (drives
	// the ~100k config-line count of Table 1).
	CustomerPrefixLines int
}

// I2AS is Internet2's AS number.
const I2AS = 11537

// BTECommunity is the block-to-external community checked in §7.3.
var BTECommunity = route.MustParseCommunity("11537:888")

// Internet2 returns the Table 1 Internet2-like spec: 10 routers, ~300
// peers, ~32k prefixes.
func Internet2() I2Spec {
	return I2Spec{Seed: 300, Routers: 10, Peers: 300, Prefixes: 32000,
		BTEFraction: 0.3, MissingBTEFilters: 4, CustomerPrefixLines: 60000}
}

// GenerateI2 produces the configuration text for an Internet2-like network.
func GenerateI2(spec I2Spec) string {
	r := rand.New(rand.NewSource(spec.Seed))
	var b strings.Builder
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	rtr := func(i int) string { return fmt.Sprintf("RTR%d", i) }
	peer := func(k int) string { return fmt.Sprintf("PEER%d", k) }
	prefix := func(i int) string {
		return fmt.Sprintf("10.%d.%d.0/24", (i/250)%250, i%250)
	}

	peersOf := make([][]int, spec.Routers)
	for k := 0; k < spec.Peers; k++ {
		i := k % spec.Routers
		peersOf[i] = append(peersOf[i], k)
	}
	tagged := map[int]bool{}
	for k := 0; k < spec.Peers; k++ {
		if r.Float64() < spec.BTEFraction {
			tagged[k] = true
		}
	}
	missing := map[int]bool{}
	for len(missing) < spec.MissingBTEFilters && len(missing) < spec.Peers {
		missing[r.Intn(spec.Peers)] = true
	}

	for i := 0; i < spec.Routers; i++ {
		w("router %s", rtr(i))
		w("bgp as %d", I2AS)
		w("bgp router-id 64.57.28.%d", i+1)
		for p := i; p < spec.Prefixes; p += spec.Routers {
			w("bgp network %s", prefix(p))
		}
		// Per-peer import policies: an expected-customer prefix list plus a
		// catch-all; tagged sessions add the BTE community on both.
		custPerPeer := 1
		if spec.Peers > 0 && spec.CustomerPrefixLines > spec.Peers {
			custPerPeer = spec.CustomerPrefixLines / spec.Peers
		}
		for _, k := range peersOf[i] {
			w("route-policy im%d permit node 10", k)
			for c := 0; c < custPerPeer; c++ {
				w(" if-match prefix 20.%d.%d.0/24", ((k*custPerPeer+c)/250)%250, (k*custPerPeer+c)%250)
			}
			if tagged[k] {
				w(" add community %s", BTECommunity)
			}
			w("route-policy im%d permit node 20", k)
			if tagged[k] {
				w(" add community %s", BTECommunity)
			}
		}
		// Export policies: the good one denies BTE routes.
		w("route-policy exgood deny node 5")
		w(" if-match community %s", BTECommunity)
		w("route-policy exgood permit node 10")
		w("route-policy exbad permit node 10")
		// Full iBGP mesh.
		for o := 0; o < spec.Routers; o++ {
			if o == i {
				continue
			}
			w("bgp peer %s AS %d advertise-community", rtr(o), I2AS)
		}
		for _, k := range peersOf[i] {
			ex := "exgood"
			if missing[k] {
				ex = "exbad"
			}
			w("bgp peer %s AS %d import im%d export %s advertise-community", peer(k), 2000+k, k, ex)
		}
		w("")
	}
	return b.String()
}

// WithPeers restricts the Internet2 spec to n peers; n <= 0 keeps them all.
func (s I2Spec) WithPeers(n int) I2Spec {
	if n > 0 && n < s.Peers {
		s.Peers = n
	}
	return s
}
