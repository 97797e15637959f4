// Package pipeline models a verification run as five first-class stages —
// Load → SRC (the EPVP fixed point) → RoutingAnalysis → SPF →
// ForwardingAnalysis — each producing a typed artifact with its own
// timing, cancellation check, and content-addressed cache key. The stage
// keys chain: a stage's key is derived from its inputs plus the digest of
// the upstream artifact, so any two requests that agree on a prefix of the
// pipeline share that prefix's artifacts (through a registered baseline or
// the store), and a request whose configuration differs from a registered
// baseline's by a few routers can warm-start the EPVP fixed point from its
// converged RIBs.
//
// The package is deliberately below the public API, whose entry points all
// drive a Runner over a Load artifact born of configuration text (Load is the
// only way to make one): expresso.Verifier with its StageCache,
// expresso.Network.VerifyContext with a zero one, which keeps nothing —
// caching and warm-starts never change what a report says, only how much of
// it is recomputed (the warm-start determinism tests pin byte-identical
// reports against cold runs).
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Stage names, in pipeline order. They prefix the stage keys and label
// StageInfo provenance entries and per-stage metrics.
const (
	StageLoad       = "load"
	StageSRC        = "src"
	StageRouting    = "routing_analysis"
	StageSPF        = "spf"
	StageForwarding = "forwarding_analysis"
	StageReport     = "report"
)

// CanonicalConfig normalizes configuration text for digesting so that
// inputs differing only in comments, blank lines, or whitespace map to the
// same key.
func CanonicalConfig(text string) string { return config.Canonical(text) }

// hashHex is the content-address function: SHA-256, hex-encoded. The text
// reaches the hash through a fixed buffer, because []byte(s) — and
// io.WriteString, which converts the same way — copies the whole of it: a
// whole configuration text is hashed at least once per run.
func hashHex(s string) string {
	h := sha256.New()
	var buf [4096]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// ConfigDigest content-addresses a configuration text (canonicalized).
func ConfigDigest(text string) string {
	return NewSource(text).Digest
}

// Source is configuration text together with its canonical form and that
// form's digest, computed once per run: the run's report key chains on
// Digest, and its Load stage (LoadSource) takes the whole Source.
type Source struct {
	Text, Canonical, Digest string
	// Elapsed is the canonical pass and digest's wall clock, which the Load
	// stage's Elapsed includes.
	Elapsed time.Duration
}

// NewSource canonicalizes and digests text.
func NewSource(text string) Source {
	start := time.Now()
	canonical := CanonicalConfig(text)
	digest := hashHex(canonical)
	return Source{Text: text, Canonical: canonical, Digest: digest, Elapsed: time.Since(start)}
}

// ReportKey is ReportKey of the source's text.
func (s Source) ReportKey(optsKey string) string {
	return reportKey(s.Digest, optsKey)
}

// DeviceDigests digests each per-router section of a canonical
// configuration. Lines before the first router section would be keyed under
// "", but a text that loads has none: the parser rejects statements there,
// and the canonical form drops comment and blank lines. The warm-start path
// diffs these maps to find the routers a delta touched.
func DeviceDigests(canonical string) map[string]string {
	return deviceDigests(canonical, nil, nil)
}

// deviceDigests is DeviceDigests for a network built from canonical, which
// takes prior's digest for every router whose Device it shares with prior
// (nil: none): a shared Device was parsed from an identical section.
func deviceDigests(canonical string, net *topology.Network, prior *LoadArtifact) map[string]string {
	out := map[string]string{}
	for _, s := range config.SplitSections(canonical) {
		if prior != nil && net.Devices[s.Router] != nil && net.Devices[s.Router] == prior.Net.Devices[s.Router] {
			out[s.Router] = prior.DeviceDigests[s.Router]
		} else {
			out[s.Router] = hashHex(s.Text)
		}
	}
	return out
}

// ReportKey is the digest identifying a whole verification request: the
// configuration's digest plus the caller's rendered options key.
// expresso.ReportDigest and the service's result cache key on it.
func ReportKey(configText, optsKey string) string {
	return NewSource(configText).ReportKey(optsKey)
}

// reportKey chains the report key on a configuration digest, so a loaded
// network (LoadArtifact.ReportKey) needs no copy of its text.
func reportKey(configDigest, optsKey string) string {
	h := sha256.New()
	h.Write([]byte(configDigest))
	h.Write([]byte{0})
	h.Write([]byte(optsKey))
	return hex.EncodeToString(h.Sum(nil))
}

// SRCKey is the cache key of the EPVP fixed point: the configuration
// digest plus the explicit per-field mode rendering. Workers are absent —
// the result is identical for every worker count.
func SRCKey(configDigest string, mode epvp.Mode) string {
	return StageSRC + "|" + configDigest + "|" + mode.Key()
}

// RoutingKey chains the routing-analysis key on the SRC artifact's digest
// and the canonical routing property selection; the BTE community
// participates only when BlockToExternal is selected (its value is
// irrelevant otherwise).
func RoutingKey(srcDigest string, props []properties.Kind, bte route.Community) string {
	key := StageRouting + "|" + srcDigest + "|props=" + joinKinds(props)
	if properties.NeedsBTE(props) {
		key += "|bte=" + strconv.FormatUint(uint64(bte), 10)
	}
	return key
}

// SPFKey chains the symbolic-packet-forwarding key on the SRC digest
// alone: SPF consumes only the converged RIBs.
func SPFKey(srcDigest string) string {
	return StageSPF + "|" + srcDigest
}

// ForwardingKey chains the forwarding-analysis key on the SPF artifact's
// digest and the canonical forwarding property selection.
func ForwardingKey(spfDigest string, props []properties.Kind) string {
	return StageForwarding + "|" + spfDigest + "|props=" + joinKinds(props)
}

func joinKinds(props []properties.Kind) string {
	names := make([]string, len(props))
	for i, p := range props {
		names[i] = string(p)
	}
	return strings.Join(names, ",")
}

// SplitProperties partitions a property selection into the routing-stage
// and forwarding-stage subsets, each deduplicated and in properties.Table
// order (so equivalent selections produce equal stage keys).
func SplitProperties(props []properties.Kind) (routing, forwarding []properties.Kind) {
	in := func(stage properties.Stage) []properties.Kind {
		return properties.Select(func(p properties.Property) bool { return p.Stage == stage && slices.Contains(props, p.Kind) })
	}
	return in(properties.Routing), in(properties.Forwarding)
}
