package config

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
)

const patchBase = `// shared preamble

router A
bgp as 100
interface eth0 ip 10.0.0.1/31
bgp network 10.1.0.0/16

router B
bgp as 100
interface eth0 ip 10.0.0.3/31
bgp network 10.2.0.0/16
`

func TestSplitSections(t *testing.T) {
	secs := SplitSections(patchBase)
	var names []string
	for _, s := range secs {
		names = append(names, s.Router)
	}
	if got, want := strings.Join(names, ","), ",A,B"; got != want {
		t.Fatalf("section order = %q, want %q", got, want)
	}
	if !strings.Contains(secs[1].Text, "router A") || !strings.Contains(secs[1].Text, "10.1.0.0/16") {
		t.Fatalf("section A text wrong:\n%s", secs[1].Text)
	}
	// Split/join round trip preserves every byte.
	var b strings.Builder
	for _, s := range secs {
		b.WriteString(s.Text)
	}
	if b.String() != patchBase {
		t.Fatalf("split/join round trip changed text:\n%q\n%q", b.String(), patchBase)
	}
}

// splitSectionsOracle is SplitSections as it was written first: every line
// tokenized, every section copied line by line. The fast path must agree
// with it exactly.
func splitSectionsOracle(text string) []Section {
	lines := strings.Split(text, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1] // text ended with "\n": not an extra empty line
	}
	order := []string{}
	bodies := map[string]*strings.Builder{}
	name := ""
	for _, line := range lines {
		if fields := tokenize(line); len(fields) >= 2 && fields[0] == "router" {
			name = fields[1]
		}
		sb, ok := bodies[name]
		if !ok {
			sb = &strings.Builder{}
			bodies[name] = sb
			order = append(order, name)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	out := make([]Section, 0, len(order))
	for _, n := range order {
		out = append(out, Section{Router: n, Text: bodies[n].String()})
	}
	return out
}

// checkSplitAgainstOracle fails when SplitSections and the oracle disagree
// on text.
func checkSplitAgainstOracle(t *testing.T, label, text string) {
	t.Helper()
	if got, want := SplitSections(text), splitSectionsOracle(text); !slices.Equal(got, want) {
		t.Fatalf("%s: SplitSections = %q, oracle %q", label, got, want)
	}
}

// TestSplitSectionsMatchesOracle compares SplitSections with the oracle on
// every generated dataset, on the fuzz seeds, and on the edge cases of line
// ends, repeated sections, comments and non-ASCII space.
func TestSplitSectionsMatchesOracle(t *testing.T) {
	for _, name := range []string{"region1", "region2", "region3", "region4", "full-old", "full-new", "internet2"} {
		text, err := netgen.Dataset(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkSplitAgainstOracle(t, name, text)
	}
	for i, s := range fuzzSeeds() {
		checkSplitAgainstOracle(t, fmt.Sprintf("fuzz seed %d", i), s)
	}
	for _, s := range []string{
		"", "\n", "\n\n", "router A", "router A\n", "router\nrouter A B\nx\n",
		"router A\nbgp as 1\nrouter B\nbgp as 2\nrouter A\nbgp network 10.0.0.0/8",
		"# router X\n  router  A  // c\r\nbgp as 1\r\n", "router//B A\n", "routerA\nrouter A\n",
		"\u00a0router N\n", "\u0085router M\nx", "\xffrouter A\n", "\trouter \xff\n",
	} {
		checkSplitAgainstOracle(t, fmt.Sprintf("%q", s), s)
	}
}

// canonicalOracle is Canonical as it was written first: every line split
// with strings.Split, tokenized, and joined. The one-pass scan must agree
// with it to the byte, since the pipeline's content addresses hash it.
func canonicalOracle(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		fields := tokenize(line)
		if len(fields) == 0 {
			continue
		}
		b.WriteString(strings.Join(fields, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCanonicalMatchesOracle compares Canonical with the oracle on every
// generated dataset, on the fuzz seeds, and on the edge cases of spacing
// (every ASCII space strings.Fields knows, NEL and NBSP), invalid UTF-8,
// line ends and comments.
func TestCanonicalMatchesOracle(t *testing.T) {
	check := func(label, text string) {
		t.Helper()
		if got, want := Canonical(text), canonicalOracle(text); got != want {
			t.Fatalf("%s: Canonical = %q, oracle %q", label, got, want)
		}
	}
	for _, name := range []string{"region1", "region2", "region3", "region4", "full-old", "full-new", "internet2"} {
		text, err := netgen.Dataset(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(name, text)
	}
	for i, s := range fuzzSeeds() {
		check(fmt.Sprintf("fuzz seed %d", i), s)
	}
	for _, s := range []string{
		"", "\n", "\n\n", " \t\n", "router A", "router A\n", "router A\r\nbgp as 1\r\n",
		"\tbgp\tas  1\t\n", "bgp\vas\f1\r\n", "\v\f\r\n",
		"bgp as 1 // comment\n", "bgp as 1# comment\n", "# only\n// only\n", "a/b c/ /d //e\n", "a#b\n", "/\n/x\n",
		"\u0085router A\n", "\u00a0bgp\u00a0as 1\n", "bgp\u3000as 1\n", "\u00a0\n", "x // \u00a0 y\n", "x # \xff\n",
		"\xffrouter A\n", "router \xff\n", "bgp as\xc2 1\n", "\xc2\x85x\n",
		"router A\nbgp as 1", "router A\n\n\nbgp as 1\n\n",
	} {
		check(fmt.Sprintf("%q", s), s)
	}
}

func TestDiffEmptyOnCosmeticEdit(t *testing.T) {
	cosmetic := strings.ReplaceAll(patchBase, "// shared preamble", "# different comment")
	cosmetic = strings.ReplaceAll(cosmetic, "interface eth0 ip", "interface  eth0  ip")
	if p := Diff(patchBase, cosmetic); !p.Empty() {
		t.Fatalf("cosmetic edit produced ops: %+v", p.Ops)
	}
}

func TestDiffEmptyOnReorder(t *testing.T) {
	secs := SplitSections(patchBase)
	reordered := secs[0].Text + secs[2].Text + secs[1].Text
	if p := Diff(patchBase, reordered); !p.Empty() {
		t.Fatalf("reorder-only edit produced ops: %+v", p.Ops)
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	// Change B, delete A, add C.
	next := `router B
bgp as 100
interface eth0 ip 10.0.0.3/31
bgp network 10.2.0.0/16
bgp network 203.0.113.0/24

router C
bgp as 100
interface eth0 ip 10.0.0.5/31
`
	p := Diff(patchBase, next)
	if p.Empty() {
		t.Fatal("diff is empty")
	}
	if got, want := strings.Join(p.Routers(), ","), "A,B,C"; got != want {
		t.Fatalf("patch routers = %q, want %q", got, want)
	}
	patched, err := ApplyPatch(patchBase, p)
	if err != nil {
		t.Fatalf("ApplyPatch: %v", err)
	}
	// The patched tree must be canonically identical to the target,
	// section by section.
	want := map[string]string{}
	for _, s := range SplitSections(next) {
		if c := Canonical(s.Text); c != "" {
			want[s.Router] = c
		}
	}
	got := map[string]string{}
	for _, s := range SplitSections(patched) {
		if c := Canonical(s.Text); c != "" {
			got[s.Router] = c
		}
	}
	if len(got) != len(want) {
		t.Fatalf("patched sections = %v, want %v", got, want)
	}
	for r, w := range want {
		if got[r] != w {
			t.Fatalf("section %q = %q, want %q", r, got[r], w)
		}
	}
	// Both sides must parse to the same devices.
	if _, err := ParseConfigs(patched); err != nil {
		t.Fatalf("patched text does not parse: %v", err)
	}
}

func TestApplyPatchErrors(t *testing.T) {
	if _, err := ApplyPatch(patchBase, Patch{Ops: []PatchOp{{Op: DeleteOp, Router: "Z"}}}); err == nil {
		t.Fatal("delete of unknown section did not error")
	}
	if _, err := ApplyPatch(patchBase, Patch{Ops: []PatchOp{{Op: "replace", Router: "A"}}}); err == nil {
		t.Fatal("unknown op did not error")
	}
}

func TestApplyEmptyPatch(t *testing.T) {
	out, err := ApplyPatch(patchBase, Patch{})
	if err != nil || out != patchBase {
		t.Fatalf("empty patch changed text (err=%v)", err)
	}
}

func TestPatchJSONRoundTrip(t *testing.T) {
	p := Diff(patchBase, strings.ReplaceAll(patchBase, "10.2.0.0/16", "10.3.0.0/16"))
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Patch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Ops) != len(p.Ops) || back.Ops[0] != p.Ops[0] {
		t.Fatalf("round trip lost ops: %+v vs %+v", back.Ops, p.Ops)
	}
}
