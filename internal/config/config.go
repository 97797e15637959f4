// Package config defines the router configuration language Expresso
// verifies, and its parser.
//
// The language is a vendor-style, line-oriented dialect modeled on the
// paper's Figure 4 examples:
//
//	router PR1
//	bgp as 300
//	interface eth0 ip 10.0.0.1/31
//	static 10.1.0.0/16 next-hop B
//	bgp network 10.0.0.0/8
//	route-policy im1 permit node 100
//	 if-match prefix 100.0.0.0/8 110.0.0.0/8 ge 8 le 24
//	 if-match community 300:100
//	 if-match as-path .*400
//	 set local-preference 200
//	 add community 300:100
//	route-policy ex1 deny node 100
//	 if-match community 300:100
//	bgp peer ISP1 remote-as 100 import im1 export ex1
//	bgp peer PR2 remote-as 300 advertise-community
//
// Hyphenated aliases from the paper ("set-local-preference",
// "add-community", "AS") are accepted. Comments start with "//" or "#".
package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/route"
)

// Device is the parsed configuration of one router. A parsed Device is
// read-only: nothing writes it once the parse returns (its AS-path automata
// are built during the parse), so one Device may be shared by every network
// built on the same router section — ParseAgainst hands a delta its
// baseline's Devices for the sections it did not change.
type Device struct {
	Name     string
	AS       uint32
	RouterID uint32
	// Interfaces hold connected prefixes.
	Interfaces []Interface
	// Statics are static routes.
	Statics []StaticRoute
	// Networks are prefixes originated into BGP (bgp network).
	Networks []route.Prefix
	// RedistributeConnected/RedistributeStatic inject interface and static
	// prefixes into BGP (the paper's Violation 2 stems from redistributing
	// an interface /31 into BGP).
	RedistributeConnected bool
	RedistributeStatic    bool
	// Policies maps policy name to definition.
	Policies map[string]*Policy
	// Peers lists BGP sessions in configuration order.
	Peers []*Peer
	// Lines is the number of configuration lines (for dataset statistics).
	Lines int
}

// Interface is a named interface with a connected prefix.
type Interface struct {
	Name   string
	Prefix route.Prefix
}

// StaticRoute is a static route to a next-hop router.
type StaticRoute struct {
	Prefix  route.Prefix
	NextHop string
}

// Peer is one BGP session from the owning device's point of view.
type Peer struct {
	// Neighbor is the remote router name (an internal device or an
	// external neighbor).
	Neighbor string
	RemoteAS uint32
	// Import and Export name route policies; empty means permit-all.
	Import, Export string
	// AdvertiseCommunity propagates communities on exported routes
	// (otherwise they are stripped, as in the paper's Figure 4 bug).
	AdvertiseCommunity bool
	// AdvertiseDefault restricts the session to advertising only a
	// default route (the "advertise-default" command of §2.1 Case 1).
	AdvertiseDefault bool
	// ReflectClient marks the neighbor as a route-reflector client.
	ReflectClient bool
}

// Policy is a route policy: an ordered list of nodes; the first matching
// node decides (permit with actions applied, or deny). Unmatched routes are
// denied, per Algorithm 2 of the paper.
type Policy struct {
	Name  string
	Nodes []*PolicyNode
}

// PolicyNode is one match/action clause of a policy.
type PolicyNode struct {
	Seq    int
	Permit bool
	// MatchPrefixes: route matches if it matches any listed prefix spec
	// (OR). Empty means "match any prefix".
	MatchPrefixes []PrefixMatch
	// MatchCommunities: route matches if its community set intersects any
	// listed expression (OR). Empty means no community condition.
	MatchCommunities []CommunityExpr
	// MatchASPath is an anchored AS-path regular expression; empty means no
	// AS-path condition.
	MatchASPath string
	Actions     []Action

	asPathAuto *automaton.Automaton // MatchASPath compiled; the parser sets it
}

// ASPathAutomaton returns the compiled automaton for MatchASPath, or nil if
// the node has no AS-path condition. The parser compiles it with the match,
// so reading it writes nothing and is safe on a shared Device.
func (n *PolicyNode) ASPathAutomaton() *automaton.Automaton { return n.asPathAuto }

// PrefixMatch matches prefixes inside Prefix whose length lies in [GE, LE].
// A match without ge/le modifiers has GE = LE = Prefix.Len (exact match).
type PrefixMatch struct {
	Prefix route.Prefix
	GE, LE uint8
}

// Matches reports whether p satisfies the spec.
func (m PrefixMatch) Matches(p route.Prefix) bool {
	return m.Prefix.Contains(p) && p.Len >= m.GE && p.Len <= m.LE
}

func (m PrefixMatch) String() string {
	if m.GE == m.Prefix.Len && m.LE == m.Prefix.Len {
		return m.Prefix.String()
	}
	return fmt.Sprintf("%s ge %d le %d", m.Prefix, m.GE, m.LE)
}

// CommunityExpr is a community match expression: a literal "300:100" or a
// digit-class pattern for the low half like "300:[1-9]00". Values holds the
// explicit expansion.
type CommunityExpr struct {
	Pattern string
	Values  []route.Community
}

// Matches reports whether the expression matches community c.
func (e CommunityExpr) Matches(c route.Community) bool {
	for _, v := range e.Values {
		if v == c {
			return true
		}
	}
	return false
}

// MatchesSet reports whether any community in s matches.
func (e CommunityExpr) MatchesSet(s route.CommunitySet) bool {
	for _, v := range e.Values {
		if s[v] {
			return true
		}
	}
	return false
}

// ParseCommunityExpr parses a community literal or pattern.
func ParseCommunityExpr(s string) (CommunityExpr, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return CommunityExpr{}, fmt.Errorf("config: community expr %q missing colon", s)
	}
	hi, err := strconv.ParseUint(s[:colon], 10, 16)
	if err != nil {
		return CommunityExpr{}, fmt.Errorf("config: bad community high half in %q", s)
	}
	lowPat := s[colon+1:]
	lows, err := expandDigitPattern(lowPat)
	if err != nil {
		return CommunityExpr{}, fmt.Errorf("config: %q: %v", s, err)
	}
	expr := CommunityExpr{Pattern: s}
	for _, lo := range lows {
		if lo > 0xffff {
			continue
		}
		expr.Values = append(expr.Values, route.Community(uint32(hi)<<16|uint32(lo)))
	}
	sort.Slice(expr.Values, func(i, j int) bool { return expr.Values[i] < expr.Values[j] })
	if len(expr.Values) == 0 {
		return CommunityExpr{}, fmt.Errorf("config: community expr %q matches nothing", s)
	}
	return expr, nil
}

// expandDigitPattern expands a decimal pattern with at most one [x-y] digit
// class, e.g. "[1-9]00" -> 100,200,...,900, or a plain literal.
func expandDigitPattern(pat string) ([]uint64, error) {
	open := strings.IndexByte(pat, '[')
	if open < 0 {
		v, err := strconv.ParseUint(pat, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad numeric pattern %q", pat)
		}
		return []uint64{v}, nil
	}
	closeIdx := strings.IndexByte(pat, ']')
	if closeIdx < open {
		return nil, fmt.Errorf("unterminated class in %q", pat)
	}
	class := pat[open+1 : closeIdx]
	if len(class) != 3 || class[1] != '-' || class[0] > class[2] || class[0] < '0' || class[2] > '9' {
		return nil, fmt.Errorf("bad digit class %q", class)
	}
	var out []uint64
	for d := class[0]; d <= class[2]; d++ {
		sub := pat[:open] + string(d) + pat[closeIdx+1:]
		vs, err := expandDigitPattern(sub)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// ActionKind enumerates route-policy actions.
type ActionKind uint8

// Supported actions.
const (
	ActSetLocalPref ActionKind = iota
	ActSetMED
	ActAddCommunity
	ActDeleteCommunity
	ActPrependASPath
)

// Action is one route-policy action.
type Action struct {
	Kind ActionKind
	// Value is the numeric operand of set actions (local-pref / MED) or the
	// AS number for prepend.
	Value uint32
	// Community is the operand of add community.
	Community route.Community
	// CommunityExpr is the operand of delete community (patterns allowed).
	CommunityExpr CommunityExpr
}

// Apply mutates a concrete route per the action.
func (a Action) Apply(r *route.Route) {
	switch a.Kind {
	case ActSetLocalPref:
		r.LocalPref = a.Value
	case ActSetMED:
		r.MED = a.Value
	case ActAddCommunity:
		if r.Communities == nil {
			r.Communities = route.CommunitySet{}
		}
		r.Communities[a.Community] = true
	case ActDeleteCommunity:
		for c := range r.Communities {
			if a.CommunityExpr.Matches(c) {
				delete(r.Communities, c)
			}
		}
	case ActPrependASPath:
		r.ASPath = append([]uint32{a.Value}, r.ASPath...)
	}
}

// MatchesRoute reports whether the node's conditions all hold for r.
func (n *PolicyNode) MatchesRoute(r route.Route) bool {
	if len(n.MatchPrefixes) > 0 {
		ok := false
		for _, m := range n.MatchPrefixes {
			if m.Matches(r.Prefix) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(n.MatchCommunities) > 0 {
		ok := false
		for _, e := range n.MatchCommunities {
			if e.MatchesSet(r.Communities) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if a := n.ASPathAutomaton(); a != nil {
		word := make([]automaton.Symbol, len(r.ASPath))
		for i, as := range r.ASPath {
			word[i] = automaton.Symbol(as)
		}
		if !a.Matches(word) {
			return false
		}
	}
	return true
}

// ApplyPolicy runs the policy over a concrete route. It returns the
// transformed route and true if permitted, or false if denied. A nil policy
// permits everything unchanged.
func ApplyPolicy(p *Policy, r route.Route) (route.Route, bool) {
	if p == nil {
		return r, true
	}
	for _, n := range p.Nodes {
		if !n.MatchesRoute(r) {
			continue
		}
		if !n.Permit {
			return route.Route{}, false
		}
		out := r.Clone()
		for _, a := range n.Actions {
			a.Apply(&out)
		}
		return out, true
	}
	return route.Route{}, false // default deny
}

// Peer lookup helpers.

// PeerWith returns the session with the named neighbor, or nil.
func (d *Device) PeerWith(neighbor string) *Peer {
	for _, p := range d.Peers {
		if p.Neighbor == neighbor {
			return p
		}
	}
	return nil
}

// Policy returns the named policy or nil (nil = permit all).
func (d *Device) Policy(name string) *Policy {
	if name == "" {
		return nil
	}
	return d.Policies[name]
}

// ParseConfigs parses a multi-router configuration text into devices.
func ParseConfigs(text string) ([]*Device, error) {
	p := &parser{lines: strings.Split(text, "\n"), interned: map[string]string{}}
	return p.parse()
}

// ParseAgainst parses text as ParseConfigs does, reusing a base
// configuration's parse: a router section (SplitSections) whose raw text
// equals baseSections[name] is given baseDevices[name] without being parsed,
// and only the other sections are parsed, each alone. Wherever that split
// could not mirror the whole-text parse exactly — statements before the
// first router, no router at all, or a parsed section that fails or does not
// come out as exactly one device of its name — the whole text is parsed
// instead, so the result, and any error with its line number, is
// ParseConfigs'. A router whose lines are not contiguous is one of those:
// its section merges two or more "router NAME" headers, so it parses as two
// devices or fails, and it equals no base section, since the base parsed to
// distinct routers (topology.Build rejects a repeat). Sharing is sound
// because a parsed Device is read-only.
func ParseAgainst(text string, baseSections map[string]string, baseDevices map[string]*Device) ([]*Device, error) {
	secs := SplitSections(text)
	devices := make([]*Device, 0, len(secs))
	for _, s := range secs {
		if s.Router == "" {
			if Canonical(s.Text) != "" {
				return ParseConfigs(text) // statements before any router
			}
			continue
		}
		if d := baseDevices[s.Router]; d != nil && baseSections[s.Router] == s.Text {
			devices = append(devices, d)
			continue
		}
		parsed, err := ParseConfigs(s.Text)
		if err != nil || len(parsed) != 1 || parsed[0].Name != s.Router {
			return ParseConfigs(text)
		}
		devices = append(devices, parsed[0])
	}
	if len(devices) == 0 {
		return ParseConfigs(text)
	}
	return devices, nil
}

type parser struct {
	lines []string
	pos   int
	// interned holds one copy of every token the parse keeps (see intern).
	interned map[string]string
}

// intern returns tok as a string of its own, one copy per distinct token
// per parse. Tokens are substrings of the input, and parsed devices outlive
// their text — caches keep networks and reports built from them — so a
// kept token would otherwise keep the whole text alive.
func (p *parser) intern(tok string) string {
	if s, ok := p.interned[tok]; ok {
		return s
	}
	s := strings.Clone(tok)
	p.interned[s] = s
	return s
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("config: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

// tokenize splits a line, stripping comments.
func tokenize(line string) []string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.Fields(line)
}

func (p *parser) parse() ([]*Device, error) {
	var devices []*Device
	var cur *Device
	var curPolicy *Policy
	var curNode *PolicyNode

	countLine := func() {
		if cur != nil {
			cur.Lines++
		}
	}

	for ; p.pos < len(p.lines); p.pos++ {
		toks := tokenize(p.lines[p.pos])
		if len(toks) == 0 {
			continue
		}
		// Normalize hyphenated aliases into canonical multi-token forms.
		toks = normalize(toks)
		switch toks[0] {
		case "router":
			if len(toks) != 2 {
				return nil, p.errf("usage: router NAME")
			}
			cur = &Device{Name: p.intern(toks[1]), Policies: map[string]*Policy{}, Lines: 1}
			devices = append(devices, cur)
			curPolicy, curNode = nil, nil
			continue
		}
		if cur == nil {
			return nil, p.errf("statement before any 'router' header")
		}
		countLine()
		var err error
		switch toks[0] {
		case "bgp":
			curPolicy, curNode = nil, nil
			err = p.parseBGP(cur, toks[1:])
		case "interface":
			curPolicy, curNode = nil, nil
			err = p.parseInterface(cur, toks[1:])
		case "static":
			curPolicy, curNode = nil, nil
			err = p.parseStatic(cur, toks[1:])
		case "route-policy":
			curPolicy, curNode, err = p.parsePolicyHeader(cur, toks[1:])
		case "if-match":
			if curNode == nil {
				return nil, p.errf("if-match outside route-policy node")
			}
			err = p.parseMatch(curNode, toks[1:])
		case "set", "add", "delete", "prepend":
			if curNode == nil {
				return nil, p.errf("%s outside route-policy node", toks[0])
			}
			err = p.parseAction(curNode, toks)
		default:
			return nil, p.errf("unknown statement %q", toks[0])
		}
		if err != nil {
			return nil, err
		}
		_ = curPolicy
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("config: no 'router' sections found")
	}
	return devices, nil
}

// normalize rewrites hyphenated aliases used in the paper into the
// canonical token stream: "set-local-preference" -> "set local-preference",
// "add-community" -> "add community", "if-match" stays, "AS" -> "remote-as".
func normalize(toks []string) []string {
	out := make([]string, 0, len(toks)+2)
	for i, t := range toks {
		switch strings.ToLower(t) {
		case "set-local-preference":
			out = append(out, "set", "local-preference")
		case "add-community":
			out = append(out, "add", "community")
		case "delete-community":
			out = append(out, "delete", "community")
		case "set-med":
			out = append(out, "set", "med")
		case "prepend-as-path":
			out = append(out, "prepend", "as-path")
		case "as":
			// "bgp peer X AS 100" alias; leave "bgp as 300" intact.
			if i >= 2 && out[0] == "bgp" && out[1] == "peer" {
				out = append(out, "remote-as")
			} else {
				out = append(out, "as")
			}
		default:
			out = append(out, t)
		}
	}
	return out
}

func (p *parser) parseBGP(d *Device, toks []string) error {
	if len(toks) == 0 {
		return p.errf("empty bgp statement")
	}
	switch toks[0] {
	case "as":
		if len(toks) != 2 {
			return p.errf("usage: bgp as NUMBER")
		}
		v, err := strconv.ParseUint(toks[1], 10, 32)
		if err != nil {
			return p.errf("bad AS number %q", toks[1])
		}
		d.AS = uint32(v)
	case "router-id":
		if len(toks) != 2 {
			return p.errf("usage: bgp router-id A.B.C.D")
		}
		id, err := route.ParseIPv4(toks[1])
		if err != nil {
			return p.errf("bad router-id %q", toks[1])
		}
		d.RouterID = id
	case "network":
		if len(toks) != 2 {
			return p.errf("usage: bgp network PREFIX")
		}
		pfx, err := route.ParsePrefix(toks[1])
		if err != nil {
			return p.errf("%v", err)
		}
		d.Networks = append(d.Networks, pfx)
	case "peer":
		return p.parsePeer(d, toks[1:])
	case "redistribute":
		if len(toks) != 2 {
			return p.errf("usage: bgp redistribute connected|static")
		}
		switch toks[1] {
		case "connected":
			d.RedistributeConnected = true
		case "static":
			d.RedistributeStatic = true
		default:
			return p.errf("unknown redistribute source %q", toks[1])
		}
	default:
		return p.errf("unknown bgp statement %q", toks[0])
	}
	return nil
}

func (p *parser) parsePeer(d *Device, toks []string) error {
	if len(toks) == 0 {
		return p.errf("usage: bgp peer NAME [remote-as N] [import P] [export P] ...")
	}
	peer := &Peer{Neighbor: p.intern(toks[0])}
	i := 1
	for i < len(toks) {
		switch toks[i] {
		case "remote-as":
			if i+1 >= len(toks) {
				return p.errf("remote-as needs a number")
			}
			v, err := strconv.ParseUint(toks[i+1], 10, 32)
			if err != nil {
				return p.errf("bad AS number %q", toks[i+1])
			}
			peer.RemoteAS = uint32(v)
			i += 2
		case "import":
			if i+1 >= len(toks) {
				return p.errf("import needs a policy name")
			}
			peer.Import = p.intern(toks[i+1])
			i += 2
		case "export":
			if i+1 >= len(toks) {
				return p.errf("export needs a policy name")
			}
			peer.Export = p.intern(toks[i+1])
			i += 2
		case "advertise-community":
			peer.AdvertiseCommunity = true
			i++
		case "advertise-default":
			peer.AdvertiseDefault = true
			i++
		case "reflect-client":
			peer.ReflectClient = true
			i++
		default:
			return p.errf("unknown peer option %q", toks[i])
		}
	}
	d.Peers = append(d.Peers, peer)
	return nil
}

func (p *parser) parseInterface(d *Device, toks []string) error {
	// interface NAME ip PREFIX
	if len(toks) != 3 || toks[1] != "ip" {
		return p.errf("usage: interface NAME ip PREFIX")
	}
	pfx, err := route.ParsePrefix(toks[2])
	if err != nil {
		return p.errf("%v", err)
	}
	d.Interfaces = append(d.Interfaces, Interface{Name: p.intern(toks[0]), Prefix: pfx})
	return nil
}

func (p *parser) parseStatic(d *Device, toks []string) error {
	// static PREFIX next-hop NAME
	if len(toks) != 3 || toks[1] != "next-hop" {
		return p.errf("usage: static PREFIX next-hop ROUTER")
	}
	pfx, err := route.ParsePrefix(toks[0])
	if err != nil {
		return p.errf("%v", err)
	}
	d.Statics = append(d.Statics, StaticRoute{Prefix: pfx, NextHop: p.intern(toks[2])})
	return nil
}

func (p *parser) parsePolicyHeader(d *Device, toks []string) (*Policy, *PolicyNode, error) {
	// route-policy NAME permit|deny node SEQ
	if len(toks) != 4 || toks[2] != "node" {
		return nil, nil, p.errf("usage: route-policy NAME permit|deny node SEQ")
	}
	name := p.intern(toks[0])
	var permit bool
	switch toks[1] {
	case "permit":
		permit = true
	case "deny":
		permit = false
	default:
		return nil, nil, p.errf("expected permit or deny, got %q", toks[1])
	}
	seq, err := strconv.Atoi(toks[3])
	if err != nil {
		return nil, nil, p.errf("bad node sequence %q", toks[3])
	}
	pol := d.Policies[name]
	if pol == nil {
		pol = &Policy{Name: name}
		d.Policies[name] = pol
	}
	node := &PolicyNode{Seq: seq, Permit: permit}
	pol.Nodes = append(pol.Nodes, node)
	sort.SliceStable(pol.Nodes, func(i, j int) bool { return pol.Nodes[i].Seq < pol.Nodes[j].Seq })
	return pol, node, nil
}

func (p *parser) parseMatch(n *PolicyNode, toks []string) error {
	if len(toks) == 0 {
		return p.errf("empty if-match")
	}
	switch toks[0] {
	case "prefix":
		// if-match prefix P1 [ge N] [le N] P2 [ge N] [le N] ...
		i := 1
		for i < len(toks) {
			pfx, err := route.ParsePrefix(toks[i])
			if err != nil {
				return p.errf("%v", err)
			}
			m := PrefixMatch{Prefix: pfx, GE: pfx.Len, LE: pfx.Len}
			i++
			leSet := false
			for i+1 < len(toks) && (toks[i] == "ge" || toks[i] == "le") {
				v, err := strconv.ParseUint(toks[i+1], 10, 8)
				if err != nil || v > 32 {
					return p.errf("bad %s bound %q", toks[i], toks[i+1])
				}
				if toks[i] == "ge" {
					m.GE = uint8(v)
					if !leSet {
						// "ge N" without "le" matches lengths N..32.
						m.LE = 32
					}
				} else {
					m.LE = uint8(v)
					leSet = true
				}
				i += 2
			}
			if m.GE < pfx.Len {
				return p.errf("ge %d below prefix length %d", m.GE, pfx.Len)
			}
			if m.LE < m.GE {
				return p.errf("le %d below ge %d", m.LE, m.GE)
			}
			n.MatchPrefixes = append(n.MatchPrefixes, m)
		}
		if len(n.MatchPrefixes) == 0 {
			return p.errf("if-match prefix needs at least one prefix")
		}
	case "community":
		if len(toks) < 2 {
			return p.errf("if-match community needs at least one expression")
		}
		for _, s := range toks[1:] {
			e, err := ParseCommunityExpr(p.intern(s))
			if err != nil {
				return p.errf("%v", err)
			}
			n.MatchCommunities = append(n.MatchCommunities, e)
		}
	case "as-path":
		if len(toks) < 2 {
			return p.errf("if-match as-path needs a regex")
		}
		expr := p.intern(strings.Join(toks[1:], " "))
		a, err := automaton.ParseRegex(expr)
		if err != nil {
			return p.errf("bad as-path regex: %v", err)
		}
		n.MatchASPath, n.asPathAuto = expr, a
	default:
		return p.errf("unknown if-match kind %q", toks[0])
	}
	return nil
}

func (p *parser) parseAction(n *PolicyNode, toks []string) error {
	switch {
	case toks[0] == "set" && len(toks) == 3 && toks[1] == "local-preference":
		v, err := strconv.ParseUint(toks[2], 10, 32)
		if err != nil {
			return p.errf("bad local-preference %q", toks[2])
		}
		n.Actions = append(n.Actions, Action{Kind: ActSetLocalPref, Value: uint32(v)})
	case toks[0] == "set" && len(toks) == 3 && toks[1] == "med":
		v, err := strconv.ParseUint(toks[2], 10, 32)
		if err != nil {
			return p.errf("bad med %q", toks[2])
		}
		n.Actions = append(n.Actions, Action{Kind: ActSetMED, Value: uint32(v)})
	case toks[0] == "add" && len(toks) == 3 && toks[1] == "community":
		c, err := route.ParseCommunity(toks[2])
		if err != nil {
			return p.errf("%v", err)
		}
		n.Actions = append(n.Actions, Action{Kind: ActAddCommunity, Community: c})
	case toks[0] == "delete" && len(toks) == 3 && toks[1] == "community":
		e, err := ParseCommunityExpr(p.intern(toks[2]))
		if err != nil {
			return p.errf("%v", err)
		}
		n.Actions = append(n.Actions, Action{Kind: ActDeleteCommunity, CommunityExpr: e})
	case toks[0] == "prepend" && len(toks) == 3 && toks[1] == "as-path":
		v, err := strconv.ParseUint(toks[2], 10, 32)
		if err != nil {
			return p.errf("bad as number %q", toks[2])
		}
		n.Actions = append(n.Actions, Action{Kind: ActPrependASPath, Value: uint32(v)})
	default:
		return p.errf("unknown action %q", strings.Join(toks, " "))
	}
	return nil
}
