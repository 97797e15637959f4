// Package enumerate implements the concrete-environment baseline the paper
// compares against in §7 ("We enumerated 1000 environments using Batfish,
// and it already took 2 hours"): Batfish/SRE-style verification that runs
// the concrete SPVP once per (prefix, advertiser-set) environment.
//
// The full environment space for n neighbors and the IPv4 prefix universe
// has (2^(2^33-1))^n members; the checker therefore enumerates a bounded
// sample — each neighbor either advertises or withholds the prefix under
// test, over a caller-supplied prefix universe — and reports how far it got
// and the projected cost of exhausting even that reduced space.
package enumerate

import (
	"math"
	"time"

	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spvp"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Options bound the enumeration.
type Options struct {
	// Prefixes is the prefix universe to enumerate (defaults to the
	// network's internal prefixes plus a handful of externals).
	Prefixes []route.Prefix
	// MaxEnvironments caps the number of environments simulated (0 =
	// unlimited).
	MaxEnvironments int
	// Timeout caps wall-clock time (0 = unlimited).
	Timeout time.Duration
}

// Report summarizes an enumeration run.
type Report struct {
	// Violations counts distinct (external, originator) leak pairs found.
	Violations int
	// Environments is the number of (prefix, advertiser-set) environments
	// simulated.
	Environments int
	// SpaceSize is the size of the reduced environment space (prefixes ×
	// 2^neighbors); the true space is astronomically larger.
	SpaceSize float64
	// TimedOut reports whether the run stopped early.
	TimedOut bool
	// Elapsed is the wall-clock time spent.
	Elapsed time.Duration
}

// ProjectedYears extrapolates the time to exhaust the reduced space at the
// observed rate, in years as a float (a time.Duration saturates at ~292 years,
// long before these spaces are covered).
func (r *Report) ProjectedYears() float64 {
	if r.Environments == 0 {
		return 0
	}
	perEnv := r.Elapsed.Seconds() / float64(r.Environments)
	return perEnv * r.SpaceSize / (365.25 * 24 * 3600)
}

// CheckRouteLeak enumerates environments and checks RouteLeakFree on each.
func CheckRouteLeak(net *topology.Network, opts Options) *Report {
	prefixes := opts.Prefixes
	if len(prefixes) == 0 {
		prefixes = net.InternalPrefixes()
		if len(prefixes) == 0 {
			prefixes = []route.Prefix{route.MustParsePrefix("10.0.0.0/8")}
		}
	}
	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	n := len(net.Externals)
	rep := &Report{}
	rep.SpaceSize = float64(len(prefixes))
	for i := 0; i < n; i++ {
		rep.SpaceSize *= 2
	}
	leaks := map[[2]string]bool{}

	// Advertiser-set masks: beyond 62 neighbors the per-prefix space no
	// longer fits a uint64 counter; the caps and timeout bound the walk.
	limit := uint64(math.MaxUint64)
	if n < 63 {
		limit = 1 << uint(n)
	}

enumLoop:
	for _, p := range prefixes {
		for mask := uint64(0); mask < limit; mask++ {
			if opts.MaxEnvironments > 0 && rep.Environments >= opts.MaxEnvironments {
				rep.TimedOut = true
				break enumLoop
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				rep.TimedOut = true
				break enumLoop
			}
			env := spvp.Environment{}
			for i, name := range net.Externals {
				if mask&(1<<uint(i)) != 0 {
					env[name] = []route.Route{{
						Prefix:      p,
						ASPath:      []uint32{net.ExternalAS[name]},
						Communities: route.CommunitySet{},
						LocalPref:   route.DefaultLocalPref,
					}}
				}
			}
			res := spvp.Run(net, p, env)
			rep.Environments++
			for _, ext := range net.Externals {
				for _, r := range res.ExternalReceived[ext] {
					if r.Originator != ext && !net.IsInternal(r.Originator) {
						leaks[[2]string{ext, r.Originator}] = true
					}
				}
			}
		}
	}
	rep.Violations = len(leaks)
	rep.Elapsed = time.Since(start)
	return rep
}
