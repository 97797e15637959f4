package config

import (
	"slices"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// fuzzSeeds are the texts the front door is known to meet: the paper's
// example, the head of each of region 1's first three sections (short enough
// for the fuzzer to minimize quickly), and the pair of files whose
// concatenation misattributes b.cfg's stray statement to router A.
func fuzzSeeds() []string {
	var excerpt strings.Builder
	for _, s := range SplitSections(netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3)))[:3] {
		lines := strings.SplitAfter(s.Text, "\n")
		excerpt.WriteString(strings.Join(lines[:min(len(lines), 25)], ""))
	}
	return []string{
		testnet.Figure4,
		testnet.Figure4Fixed,
		excerpt.String(),
		testnet.StrayA,
		testnet.StrayB,
	}
}

// FuzzParseConfigs: no text panics the parser, and a text it accepts is
// accepted in canonical form too — the form the digests address — as the
// same routers.
func FuzzParseConfigs(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		devices, err := ParseConfigs(text)
		if err != nil {
			return
		}
		again, err := ParseConfigs(Canonical(text))
		if err != nil {
			t.Fatalf("accepted text is rejected in canonical form: %v", err)
		}
		if len(again) != len(devices) {
			t.Fatalf("canonical form has %d routers, the text %d", len(again), len(devices))
		}
		for i, d := range devices {
			if again[i].Name != d.Name || again[i].Lines != d.Lines {
				t.Fatalf("router %d is %s (%d lines) in canonical form, %s (%d lines) in the text",
					i, again[i].Name, again[i].Lines, d.Name, d.Lines)
			}
		}
	})
}

// sectionNames lists a text's sections in order, and reports whether every
// router's lines are contiguous (SplitSections merges a repeated section into
// its first occurrence, which moves lines).
func sectionNames(text string) (names []string, contiguous bool) {
	var joined strings.Builder
	for _, s := range SplitSections(text) {
		names = append(names, s.Router)
		joined.WriteString(s.Text)
	}
	return names, Canonical(joined.String()) == Canonical(text)
}

// FuzzDiffApply: SplitSections agrees with its oracle, a text diffs to
// nothing against itself, and applying
// Diff(old, new) to old yields new, canonically — under ApplyPatch's
// documented precondition that new keeps old's section order: no router's
// section is split in two, the sections new shares with old come first and in
// old's order, and the ones it introduces follow (where ApplyPatch appends
// them).
func FuzzDiffApply(f *testing.F) {
	seeds := fuzzSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, oldText, newText string) {
		for _, text := range []string{oldText, newText} {
			checkSplitAgainstOracle(t, "input", text)
			if p := Diff(text, text); !p.Empty() {
				t.Fatalf("Diff(x, x) = %+v for x = %q", p, text)
			}
		}
		patch := Diff(oldText, newText)
		got, err := ApplyPatch(oldText, patch)
		if err != nil {
			t.Fatalf("ApplyPatch rejects Diff's own patch %+v: %v", patch, err)
		}

		oldNames, _ := sectionNames(oldText)
		newNames, contiguous := sectionNames(newText)
		if !contiguous {
			return
		}
		inNew, inOld := map[string]bool{}, map[string]bool{}
		for _, n := range newNames {
			inNew[n] = true
		}
		var want []string
		for _, n := range oldNames {
			inOld[n] = true
			if inNew[n] {
				want = append(want, n)
			}
		}
		for _, n := range newNames {
			if !inOld[n] {
				want = append(want, n)
			}
		}
		if !slices.Equal(want, newNames) {
			return
		}
		if Canonical(got) != Canonical(newText) {
			t.Fatalf("patched text is canonically\n%q\nwant\n%q\npatch %+v", Canonical(got), Canonical(newText), patch)
		}
	})
}
