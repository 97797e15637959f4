package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/expresso-verify/expresso/internal/store"
)

// ErrBaselineExists is wrapped by every refusal to register a name twice.
var ErrBaselineExists = errors.New("already registered")

// A Baseline is a named, resident converged state: the registry holds the
// SRC fixed point of a registered configuration (SRCArtifact.retain) for as
// long as the registration lives, so neither it nor anything built on it —
// its own routing, SPF and forwarding results — is unpinned by cache
// eviction. Baselines are the only warm-start anchor of the delta request
// model: a delta request names its baseline and the Runner seeds the EPVP
// fixed point from it, in the baseline's manager; a request that names none
// runs cold, in a manager of its own.
type Baseline struct {
	// Name is the registry key.
	Name string
	// ConfigText is the exact registered configuration; patches apply to
	// it. ConfigDigest is its canonical digest.
	ConfigText   string
	ConfigDigest string
	// SRC is the converged fixed point; Load its upstream artifact (the
	// delta diff base).
	SRC  *SRCArtifact
	Load *LoadArtifact
	// StageKeys maps each pipeline stage that executed during
	// registration to its stage key — the baseline's root set in the
	// persistent store (see GCStore).
	StageKeys map[string]string
	// Created is the registration time.
	Created time.Time
}

// NewBaseline describes a baseline from a completed registration run, which
// the caller still holds. configText is the registered text (the future
// delta base); created stamps the manifest.
func NewBaseline(name, configText string, out *Outcome, created time.Time) *Baseline {
	b := &Baseline{
		Name:         name,
		ConfigText:   configText,
		ConfigDigest: out.SRC.Load.Digest,
		SRC:          out.SRC,
		Load:         out.SRC.Load,
		StageKeys:    map[string]string{},
		Created:      created,
	}
	for _, st := range out.Stages {
		b.StageKeys[st.Stage] = st.Key
	}
	return b
}

// Manifest renders the baseline's persistent description.
func (b *Baseline) Manifest() *BaselineManifest {
	m := &BaselineManifest{
		Name:         b.Name,
		ConfigDigest: b.ConfigDigest,
		SRCDigest:    b.SRC.Digest,
		Created:      b.Created,
		DiskRefs:     map[string][]string{},
	}
	for stage, key := range b.StageKeys {
		if stage == StageLoad || stage == StageReport {
			continue // never stored as blobs
		}
		m.DiskRefs[stage] = append(m.DiskRefs[stage], DiskKey(key))
	}
	return m
}

// BaselineRegistry is the named-baseline table a Runner resolves delta
// requests against. The zero value is an empty registry. Safe for concurrent
// use.
type BaselineRegistry struct {
	mu     sync.Mutex
	byName map[string]*Baseline
}

// Register adds a baseline under its name and becomes a holder of its
// converged state; a refused registration holds nothing. Registering a name
// twice is an error: a baseline is an anchor other requests name, so
// replacing one must be an explicit Remove + Register.
func (r *BaselineRegistry) Register(b *Baseline) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[b.Name]; ok {
		return fmt.Errorf("pipeline: baseline %q %w", b.Name, ErrBaselineExists)
	}
	if !b.SRC.retain() {
		return fmt.Errorf("pipeline: baseline %q: its converged state was released", b.Name)
	}
	if r.byName == nil {
		r.byName = map[string]*Baseline{}
	}
	r.byName[b.Name] = b
	return nil
}

// Get returns the baseline registered under name.
func (r *BaselineRegistry) Get(name string) (*Baseline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.byName[name]
	return b, ok
}

// Remove unregisters a baseline and lets go of its converged state, which
// from then on lives or dies with the SRC cache like any other artifact. It
// returns the baseline (or ok=false if the name is unknown).
func (r *BaselineRegistry) Remove(name string) (*Baseline, bool) {
	r.mu.Lock()
	b, ok := r.byName[name]
	delete(r.byName, name)
	r.mu.Unlock()
	if ok {
		b.SRC.Release()
	}
	return b, ok
}

// List returns the registered baselines sorted by name.
func (r *BaselineRegistry) List() []*Baseline {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Baseline, 0, len(r.byName))
	for _, b := range r.byName {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of registered baselines (the /metrics gauge).
func (r *BaselineRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}

// DiskKey is the persistent-store address of a stage key: stage keys embed
// '|'-joined digest chains, so the store sees their hash (a content address
// of a content address — collision-free for the same reason the keys are).
// Exported for the gc sweep and manifests, which must name store blobs the
// way the pipeline writes them.
func DiskKey(key string) string { return hashHex(key) }

// StageBaseline is the store stage directory baseline manifests live
// under. Manifests are JSON (not framed artifact codecs) addressed by the
// hash of the baseline name, so every process sharing a store directory
// sees the same root set.
const StageBaseline = "baseline"

// ManifestDigest is the store digest a baseline's manifest is filed
// under.
func ManifestDigest(name string) string { return hashHex("baseline|" + name) }

// BaselineManifest is the persistent description of a registered
// baseline: enough for `expresso store gc` in another process (or after a
// restart) to treat the baseline's artifacts as roots, and for operators
// to see what a store directory is keeping warm.
type BaselineManifest struct {
	Name         string    `json:"name"`
	ConfigDigest string    `json:"config_digest"`
	SRCDigest    string    `json:"src_digest"`
	Created      time.Time `json:"created"`
	// DiskRefs maps stage → store digests (DiskKey of the stage keys) the
	// baseline keeps alive.
	DiskRefs map[string][]string `json:"disk_refs,omitempty"`
}

// SaveManifest writes the manifest into the tier (best-effort, like every
// store write).
func SaveManifest(t store.Tier, m *BaselineManifest) {
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	t.Put(StageBaseline, ManifestDigest(m.Name), data)
}

// DeleteManifest removes a baseline's manifest from the tier.
func DeleteManifest(t store.Tier, name string) bool {
	return t.Delete(StageBaseline, ManifestDigest(name))
}

// LoadManifests scans the disk tier for baseline manifests. Corrupt
// manifests are skipped (and will be pruned by gc only if no valid
// manifest references them — a corrupt manifest keeps nothing alive).
func LoadManifests(d *store.Disk) []*BaselineManifest {
	var out []*BaselineManifest
	for _, k := range d.Keys() {
		if k.Stage != StageBaseline {
			continue
		}
		data, ok := d.Get(StageBaseline, k.Digest)
		if !ok {
			continue
		}
		var m BaselineManifest
		if err := json.Unmarshal(data, &m); err != nil {
			continue
		}
		out = append(out, &m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GCResult summarizes one gc sweep of a store directory.
type GCResult struct {
	// Baselines is the number of valid manifests whose refs formed the
	// root set.
	Baselines int
	// Kept / Pruned list the blobs retained and removed (or, on a dry
	// run, that would be removed), sorted by (stage, digest).
	Kept   []store.Key
	Pruned []store.Key
	// PrunedBytes totals the framed sizes of the pruned blobs.
	PrunedBytes int64
}

// GCStore prunes every blob in the disk tier that no registered
// baseline's manifest references. The root set is the manifests
// themselves plus all their DiskRefs; everything else — anonymous
// verification artifacts whose configs were never registered — is
// removed. With dryRun, nothing is deleted and Pruned reports what would
// go.
func GCStore(d *store.Disk, dryRun bool) *GCResult {
	manifests := LoadManifests(d)
	keep := map[string]bool{}
	for _, m := range manifests {
		keep[StageBaseline+"/"+ManifestDigest(m.Name)] = true
		for stage, refs := range m.DiskRefs {
			for _, digest := range refs {
				keep[stage+"/"+digest] = true
			}
		}
	}
	res := &GCResult{Baselines: len(manifests)}
	for _, k := range d.Keys() {
		if keep[k.Stage+"/"+k.Digest] {
			res.Kept = append(res.Kept, k)
			continue
		}
		res.Pruned = append(res.Pruned, k)
		res.PrunedBytes += k.Size
		if !dryRun {
			d.Delete(k.Stage, k.Digest)
		}
	}
	return res
}
