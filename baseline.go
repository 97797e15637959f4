package expresso

import (
	"context"
	"fmt"
	"time"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/pipeline"
)

// Patch re-exports the canonical config-tree delta: an ordered edit
// script of per-router section sets and deletes (see config.Diff). It is
// the request body of delta verifications (Verifier.VerifyDelta, the
// service's POST /v1/jobs) and what `expresso gate` computes between two
// config trees.
type Patch = config.Patch

// PatchOp re-exports one section edit of a Patch.
type PatchOp = config.PatchOp

// DiffConfigs computes the canonical patch transforming one configuration
// text into another. Cosmetic edits (comments, whitespace, section
// reordering) diff to the empty patch.
func DiffConfigs(oldText, newText string) Patch {
	return config.Diff(oldText, newText)
}

// ApplyPatch applies a patch to a configuration text.
func ApplyPatch(text string, p Patch) (string, error) {
	return config.ApplyPatch(text, p)
}

// BaselineInfo describes a registered baseline.
type BaselineInfo struct {
	Name string `json:"name"`
	// ConfigDigest is the canonical digest of the registered text;
	// SRCDigest the content address of its pinned converged fixed point
	// (what warm-start provenance reports as the seed).
	ConfigDigest string    `json:"config_digest"`
	SRCDigest    string    `json:"src_digest"`
	Created      time.Time `json:"created"`
	// Violations is the number of violations the registration run found —
	// the reference count gate comparisons subtract against.
	Violations int `json:"violations"`
}

func baselineInfo(b *pipeline.Baseline, violations int) *BaselineInfo {
	return &BaselineInfo{
		Name:         b.Name,
		ConfigDigest: b.ConfigDigest,
		SRCDigest:    b.SRC.Digest,
		Created:      b.Created,
		Violations:   violations,
	}
}

// ErrBaselineExists is wrapped by the error of registering a name that is
// already registered.
var ErrBaselineExists = pipeline.ErrBaselineExists

// RegisterBaseline verifies configText and registers its converged state
// as the named baseline: the SRC fixed point — with the routing, SPF and
// forwarding results of this run — stays resident, whatever the caches
// evict, until RemoveBaseline, and becomes the warm-start anchor for every
// delta request naming the baseline.
// When a persistent store is attached, a manifest describing the
// baseline's artifacts is written through so `expresso store gc` (in this
// or any other process sharing the directory) treats them as roots.
// Registering an already-registered name is an error.
func (v *Verifier) RegisterBaseline(ctx context.Context, name, configText string, opts Options) (*Report, *BaselineInfo, error) {
	if name == "" {
		return nil, nil, fmt.Errorf("expresso: baseline name must be non-empty")
	}
	if _, ok := v.baselines.Get(name); ok {
		return nil, nil, fmt.Errorf("expresso: baseline %q %w", name, ErrBaselineExists)
	}
	var b *pipeline.Baseline
	rep, _, err := v.runText(ctx, configText, "", opts, func(out *pipeline.Outcome) error {
		b = pipeline.NewBaseline(name, configText, out, time.Now())
		return v.baselines.Register(b) // fails on a lost registration race for the name
	})
	if err != nil {
		return nil, nil, err
	}
	if v.store != nil {
		pipeline.SaveManifest(v.store, b.Manifest())
	}
	return rep, baselineInfo(b, len(rep.Violations)), nil
}

// Baseline looks up a registered baseline by name.
func (v *Verifier) Baseline(name string) (*BaselineInfo, bool) {
	b, ok := v.baselines.Get(name)
	if !ok {
		return nil, false
	}
	return baselineInfo(b, -1), true
}

// BaselineText returns the registered configuration text of a baseline —
// the base that VerifyDelta patches apply to.
func (v *Verifier) BaselineText(name string) (string, bool) {
	b, ok := v.baselines.Get(name)
	if !ok {
		return "", false
	}
	return b.ConfigText, true
}

// Baselines lists the registered baselines sorted by name.
func (v *Verifier) Baselines() []*BaselineInfo {
	bs := v.baselines.List()
	out := make([]*BaselineInfo, len(bs))
	for i, b := range bs {
		out[i] = baselineInfo(b, -1)
	}
	return out
}

// BaselineCount reports the number of registered baselines (the /metrics
// gauge).
func (v *Verifier) BaselineCount() int { return v.baselines.Len() }

// RemoveBaseline unregisters a baseline, lets go of its converged state
// (which now lives or dies with the SRC cache), and deletes its
// persistent manifest — the next `expresso store gc` may prune its
// artifacts. Reports whether the name was registered.
func (v *Verifier) RemoveBaseline(name string) bool {
	_, ok := v.baselines.Remove(name)
	if ok && v.store != nil {
		pipeline.DeleteManifest(v.store, name)
	}
	return ok
}

// VerifyTextFrom verifies configText as a delta against the named
// baseline: the SRC stage anchors on the baseline's pinned converged
// state (serving it outright when the config is canonically unchanged,
// warm-starting from it otherwise) instead of relying on cache residency.
// The report is byte-identical (up to timings, heap, and iteration
// counts) to a scratch run of the same text. An empty baseline makes it
// an anonymous verification (VerifyText).
func (v *Verifier) VerifyTextFrom(ctx context.Context, baseline, configText string, opts Options) (*Report, *RunInfo, error) {
	if baseline != "" {
		if _, ok := v.baselines.Get(baseline); !ok {
			return nil, nil, fmt.Errorf("expresso: baseline %q is not registered", baseline)
		}
	}
	return v.runText(ctx, configText, baseline, opts, nil)
}

// VerifyDelta applies a patch to the named baseline's registered text and
// verifies the result against the baseline. The patched text is returned
// via RunInfo's digest chain; use ApplyPatch directly when the caller
// needs the text itself.
func (v *Verifier) VerifyDelta(ctx context.Context, baseline string, p Patch, opts Options) (*Report, *RunInfo, error) {
	b, ok := v.baselines.Get(baseline)
	if !ok {
		return nil, nil, fmt.Errorf("expresso: baseline %q is not registered", baseline)
	}
	text, err := config.ApplyPatch(b.ConfigText, p)
	if err != nil {
		return nil, nil, err
	}
	return v.VerifyTextFrom(ctx, baseline, text, opts)
}
