// Config-tree diff/patch: the canonical delta representation of the
// baseline/delta request model. A configuration text is viewed as an
// ordered tree of sections — a preamble (lines before the first "router"
// directive, keyed "") followed by one section per router — and a Patch
// is the minimal per-section edit script between two such trees. Patches
// are what the service accepts against a named baseline (POST /v1/jobs
// with {baseline, patch}) and what `expresso gate` computes between two
// config trees.
//
// Diff compares sections in their Canonical form, the one the digest layer
// addresses (comments, blank lines, and whitespace runs are insignificant), so
// a cosmetic edit produces an empty patch, and ApplyPatch(old, Diff(old,
// new)) is canonically equivalent to new whenever new preserves old's
// section order. Reordering sections without changing their content also
// yields an empty patch: parsing is per-router, so section order never
// changes verification semantics.
package config

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Patch op kinds. SetOp replaces (or introduces) a section's full text;
// DeleteOp removes the section.
const (
	SetOp    = "set"
	DeleteOp = "delete"
)

// PatchOp is one section edit. Router "" addresses the preamble (lines
// before the first router section). For SetOp, Config carries the
// section's complete replacement text, including its "router NAME" line
// for router sections; for DeleteOp, Config is empty.
type PatchOp struct {
	Op     string `json:"op"`
	Router string `json:"router"`
	Config string `json:"config,omitempty"`
}

// Patch is an ordered edit script between two config trees. Deletes come
// first, then sets in the new tree's section order; ApplyPatch applies
// ops in sequence.
type Patch struct {
	Ops []PatchOp `json:"ops"`
}

// Empty reports whether the patch changes nothing.
func (p Patch) Empty() bool { return len(p.Ops) == 0 }

// Routers returns the distinct section names the patch touches, sorted,
// with the preamble rendered as "". Useful for coalescing keys and logs.
func (p Patch) Routers() []string {
	seen := map[string]bool{}
	for _, op := range p.Ops {
		seen[op.Router] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Section is one node of the config tree: the preamble (Router "") or a
// router's complete raw text. Text keeps original bytes — comments and
// spacing survive a split/join round trip.
type Section struct {
	Router string
	Text   string
}

// SplitSections splits configuration text into its ordered section list.
// A section starts at a line whose first token (after comment stripping)
// is "router" with a name; repeated sections for one router merge into
// the first occurrence, which is how the parser attributes lines — and the
// pipeline's per-router digests, which are taken over these sections. The
// preamble (comments and blank lines before the
// first router — the parser rejects statements there) is kept as a
// Router "" section so a split/join round trip preserves every byte. Every
// line ends in "\n" in the output, the last one included. Only lines whose
// first non-blank text is "router" are tokenized, and a section whose
// lines are contiguous in the text is a substring of it.
func SplitSections(text string) []Section {
	// A section is a list of line runs, text[start:end] each.
	type section struct {
		name  string
		spans [][2]int
	}
	var order []*section
	byName := map[string]*section{}
	var cur *section
	enter := func(name string) {
		if cur = byName[name]; cur == nil {
			cur = &section{name: name}
			byName[name] = cur
			order = append(order, cur)
		}
	}
	for start := 0; start < len(text); {
		end := len(text)
		if i := strings.IndexByte(text[start:], '\n'); i >= 0 {
			end = start + i + 1
		}
		line := text[start:end]
		if strings.HasPrefix(strings.TrimLeftFunc(line, unicode.IsSpace), "router") {
			if fields := tokenize(line); len(fields) >= 2 && fields[0] == "router" && (cur == nil || cur.name != fields[1]) {
				enter(fields[1])
			}
		}
		if cur == nil {
			enter("") // lines before the first router
		}
		if n := len(cur.spans); n > 0 && cur.spans[n-1][1] == start {
			cur.spans[n-1][1] = end
		} else {
			cur.spans = append(cur.spans, [2]int{start, end})
		}
		start = end
	}
	out := make([]Section, 0, len(order))
	for _, s := range order {
		sec := text[s.spans[0][0]:s.spans[0][1]]
		if len(s.spans) > 1 || !strings.HasSuffix(sec, "\n") {
			var b strings.Builder
			for _, sp := range s.spans {
				b.WriteString(text[sp[0]:sp[1]])
			}
			if !strings.HasSuffix(b.String(), "\n") {
				b.WriteByte('\n') // the text's last line had none
			}
			sec = b.String()
		}
		out = append(out, Section{Router: s.name, Text: sec})
	}
	return out
}

// Canonical reduces configuration text to its significant content: every
// line's tokens (tokenize strips the comments) joined by single spaces,
// blank lines dropped. Two texts with equal canonical forms are identical
// to the parser; it is the form the pipeline's content addresses and this
// package's Diff compare. It walks the text once, line by line, into one
// buffer: a line is cut at its comment and split on the six ASCII spaces
// strings.Fields splits on, and a line with a byte ≥ 0x80 before its comment
// goes through tokenize itself, so the output is tokenize's to the byte.
func Canonical(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		appendCanonicalLine(&b, line)
	}
	return b.String()
}

// asciiSpace holds the bytes strings.Fields splits an ASCII string on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendCanonicalLine writes line's canonical form — its fields joined by
// single spaces and a newline, or nothing when it has none — to b.
func appendCanonicalLine(b *strings.Builder, line string) {
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			if fields := tokenize(line); len(fields) > 0 {
				b.WriteString(strings.Join(fields, " "))
				b.WriteByte('\n')
			}
			return
		case c == '#' || c == '/' && i+1 < len(line) && line[i+1] == '/':
			line = line[:i] // and the scan ends
		}
	}
	mark := b.Len()
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		j := i
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		if j > i {
			if b.Len() > mark {
				b.WriteByte(' ')
			}
			b.WriteString(line[i:j])
		}
		i = j
	}
	if b.Len() > mark {
		b.WriteByte('\n')
	}
}

// Diff computes the canonical patch transforming oldText's config tree
// into newText's: a DeleteOp per section that disappeared, then a SetOp
// (carrying the new raw text) per section that appeared or whose
// canonical content changed, in newText's order. Sections whose content
// is canonically unchanged produce no op, so cosmetic and reorder-only
// edits diff to the empty patch.
func Diff(oldText, newText string) Patch {
	oldSecs := SplitSections(oldText)
	newSecs := SplitSections(newText)
	oldByName := make(map[string]Section, len(oldSecs))
	for _, s := range oldSecs {
		oldByName[s.Router] = s
	}
	newByName := make(map[string]Section, len(newSecs))
	for _, s := range newSecs {
		newByName[s.Router] = s
	}
	var p Patch
	for _, s := range oldSecs {
		if Canonical(s.Text) == "" {
			continue // comment-only (preamble): nothing to delete
		}
		// A comment-only counterpart carries nothing over, and gets no SetOp.
		if Canonical(newByName[s.Router].Text) == "" {
			p.Ops = append(p.Ops, PatchOp{Op: DeleteOp, Router: s.Router})
		}
	}
	for _, s := range newSecs {
		canon := Canonical(s.Text)
		if canon == "" {
			continue // comment-only (preamble): nothing to set
		}
		if old, ok := oldByName[s.Router]; ok && Canonical(old.Text) == canon {
			continue
		}
		p.Ops = append(p.Ops, PatchOp{Op: SetOp, Router: s.Router, Config: s.Text})
	}
	return p
}

// ApplyPatch applies a patch to a configuration text and returns the
// patched text. Existing sections edited by a SetOp keep their position;
// sections the patch introduces append in op order. DeleteOp on a section
// the text does not have is an error (the patch was diffed against a
// different base), as is an unknown op kind. Applying the empty patch
// returns the input unchanged.
func ApplyPatch(text string, p Patch) (string, error) {
	if p.Empty() {
		return text, nil
	}
	secs := SplitSections(text)
	index := make(map[string]int, len(secs))
	for i, s := range secs {
		index[s.Router] = i
	}
	deleted := map[string]bool{}
	for _, op := range p.Ops {
		switch op.Op {
		case DeleteOp:
			i, ok := index[op.Router]
			if !ok || deleted[op.Router] {
				return "", fmt.Errorf("config: patch deletes unknown section %q", sectionName(op.Router))
			}
			secs[i].Text = ""
			deleted[op.Router] = true
		case SetOp:
			if i, ok := index[op.Router]; ok && !deleted[op.Router] {
				secs[i].Text = op.Config
			} else {
				delete(deleted, op.Router)
				index[op.Router] = len(secs)
				secs = append(secs, Section{Router: op.Router, Text: op.Config})
			}
		default:
			return "", fmt.Errorf("config: patch op %q is not %q or %q", op.Op, SetOp, DeleteOp)
		}
	}
	var b strings.Builder
	for _, s := range secs {
		if s.Text == "" {
			continue
		}
		b.WriteString(s.Text)
		if !strings.HasSuffix(s.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

func sectionName(router string) string {
	if router == "" {
		return "(preamble)"
	}
	return router
}
