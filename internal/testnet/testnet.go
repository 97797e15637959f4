// Package testnet holds shared example network configurations used by
// tests, examples, and documentation. Each fixture mirrors a scenario from
// the Expresso paper.
package testnet

// Figure4 is the paper's Figure 4 example network with the 3-bit prefixes
// mapped onto IPv4: 100/2 -> 128.0.0.0/2, 110/2 -> 192.0.0.0/2,
// 000/2 -> 0.0.0.0/2. PR1's session to PR2 is missing advertise-community —
// the paper's misconfiguration, which leaks ISP1's routes to ISP2: the
// community marking incoming external routes is stripped on the iBGP hop,
// so PR2's export policy no longer recognizes (and denies) them.
const Figure4 = `
// ---------- Configuration of PR1 ----------
router PR1
bgp as 300
route-policy im1 permit node 100
 if-match prefix 128.0.0.0/2 192.0.0.0/2
 set-local-preference 200
 add-community 300:100
route-policy ex1 deny node 100
 if-match community 300:100
route-policy ex1 permit node 200
bgp peer ISP1 AS 100 import im1 export ex1
bgp peer PR2 AS 300

# ---------- Configuration of PR2 ----------
router PR2
bgp as 300
bgp network 0.0.0.0/2
route-policy im2 permit node 100
 if-match prefix 128.0.0.0/2 192.0.0.0/2
 add-community 300:100
route-policy ex2 deny node 100
 if-match community 300:100
route-policy ex2 permit node 200
bgp peer ISP2 AS 200 import im2 export ex2
bgp peer PR1 AS 300 advertise-community
`

// Figure4Fixed is Figure4 with the misconfiguration repaired:
// advertise-community present on PR1's session to PR2, so the community
// survives the iBGP hop and PR2's export policy denies the leak.
const Figure4Fixed = `
router PR1
bgp as 300
route-policy im1 permit node 100
 if-match prefix 128.0.0.0/2 192.0.0.0/2
 set-local-preference 200
 add-community 300:100
route-policy ex1 deny node 100
 if-match community 300:100
route-policy ex1 permit node 200
bgp peer ISP1 AS 100 import im1 export ex1
bgp peer PR2 AS 300 advertise-community

router PR2
bgp as 300
bgp network 0.0.0.0/2
route-policy im2 permit node 100
 if-match prefix 128.0.0.0/2 192.0.0.0/2
 add-community 300:100
route-policy ex2 deny node 100
 if-match community 300:100
route-policy ex2 permit node 200
bgp peer ISP2 AS 200 import im2 export ex2
bgp peer PR1 AS 300 advertise-community
`

// Case1Blackhole models §2.1 Case 1 (Figure 1): a PoP of a cloud WAN
// (AS 100) with router A facing ISP D via BGP, router B facing an ISP that
// forwards traffic for 10.1.0.0/16 to B via a static route (so B receives
// packets but no BGP routes), and router C facing the datacenter (AS 65500)
// that owns 10.1.0.0/16. The iBGP sessions are A–C and B–C only.
//
// Baseline: C learns the prefix from DC (local-pref 150) and advertises it
// to A and B. After the operators remove advertise-default from A's session
// to C, ISP D's unexpected advertisement of 10.1.0.0/16 is imported at A
// with local-pref 200, advertised to C, and beats the datacenter route.
// C's best route is now iBGP-learned, so C stops advertising to B (iBGP
// non-transit) — Internet traffic statically forwarded to B blackholes.
const Case1Blackhole = `
router A
bgp as 100
route-policy imext permit node 10
 set local-preference 200
route-policy exall permit node 10
bgp peer D AS 200 import imext export exall
bgp peer C AS 100 advertise-community

router B
bgp as 100
route-policy exall permit node 10
bgp peer C AS 100 advertise-community

router C
bgp as 100
route-policy imdc permit node 10
 set local-preference 150
route-policy exall permit node 10
bgp peer DC AS 65500 import imdc export exall
bgp peer A AS 100 advertise-community
bgp peer B AS 100 advertise-community
`

// Case2RouteLeak models §2.1 Case 2 (the CDN route leak, Figure 2) from
// the CDN's point of view: the CDN (AS 400) peers with ISP1 (AS 300) and
// with ISP2 (AS 200) at two PoPs (routers A and B). ISP2 de-aggregates
// 10.1.0.0/16 into /24s toward the CDN. Best practice tags peer routes with
// no-export-to-peers community 400:99 and denies them toward other peers;
// router B's import policy forgot the tag, so /24s learned at B leak to
// ISP1 at A.
const Case2RouteLeak = `
router A
bgp as 400
route-policy imisp2 permit node 10
 add community 400:99
route-policy expeer deny node 10
 if-match community 400:99
route-policy expeer permit node 20
bgp peer ISP2a AS 200 import imisp2 export expeer
bgp peer ISP1 AS 300 export expeer
bgp peer B AS 400 advertise-community

router B
bgp as 400
route-policy imisp2 permit node 10
route-policy expeer deny node 10
 if-match community 400:99
route-policy expeer permit node 20
bgp peer ISP2b AS 200 import imisp2 export expeer
bgp peer A AS 400 advertise-community
`

// StrayA and StrayB are the two files, a.cfg and b.cfg, of a config directory
// that must be rejected: B opens with a statement outside any router, which —
// were the files joined before parsing — would be read as router A's.
const (
	StrayA = "router A\nbgp as 200\nbgp network 10.0.0.0/8\nbgp peer X AS 100\n"
	StrayB = "bgp as 777\n"
)
