package service

import (
	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/pipeline"
)

// CanonicalConfig normalizes configuration text for digesting so that
// submissions differing only in comments, blank lines, or whitespace map to
// the same cache key: the parser's own canonical form (config.Canonical).
func CanonicalConfig(text string) string {
	return pipeline.CanonicalConfig(text)
}

// Digest returns the SHA-256 hex digest identifying a verification
// request: the canonicalized configuration text plus the normalized
// options. Identical digests request identical work, so the report cache
// keys on it. It is the same value expresso.ReportDigest computes.
func Digest(configText string, opts expresso.Options) string {
	return expresso.ReportDigest(configText, opts)
}
