package config

import (
	"reflect"
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

// FuzzParseAgainst: parsing a text against a base's sections and devices is
// parsing it whole — devices deeply equal to ParseConfigs', or its error to
// the byte — and every router section's canonical form is that router's
// section of the canonical text, which lets a section parsed once keep the
// per-router digest it had. The base is what a registered baseline can be: a
// text that parses to routers of distinct names.
func FuzzParseAgainst(f *testing.F) {
	seeds := fuzzSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	// A router whose lines are not contiguous: its section merges two
	// headers, so only the whole-text parse can mirror ParseConfigs.
	base := "router A\nbgp as 1\nrouter B\nbgp as 2\n"
	f.Add(base, base+"router A\n")
	f.Add(base, "router A\nrouter B\nbgp as 2\nrouter A\nbgp as 1\n")
	f.Fuzz(func(t *testing.T, baseText, text string) {
		baseSections, baseDevices := map[string]string{}, map[string]*Device{}
		if devices, err := ParseConfigs(baseText); err == nil {
			for _, d := range devices {
				if baseDevices[d.Name] != nil {
					clear(baseDevices)
					break
				}
				baseDevices[d.Name] = d
			}
			for _, s := range SplitSections(baseText) {
				baseSections[s.Router] = s.Text
			}
		}
		got, gotErr := ParseAgainst(text, baseSections, baseDevices)
		want, wantErr := ParseConfigs(text)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseAgainst error %v, ParseConfigs error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseAgainst gives %d devices, ParseConfigs %d, and they differ", len(got), len(want))
		}

		canonical := map[string]string{}
		for _, s := range SplitSections(Canonical(text)) {
			canonical[s.Router] = s.Text
		}
		raw := map[string]string{}
		for _, s := range SplitSections(text) {
			raw[s.Router] = s.Text
			if c := Canonical(s.Text); c != canonical[s.Router] {
				t.Fatalf("section %q is %q in canonical form, the canonical text's section %q", s.Router, c, canonical[s.Router])
			}
		}
		for name := range canonical {
			if _, ok := raw[name]; !ok {
				t.Fatalf("the canonical text has a section %q the text has not", name)
			}
		}
	})
}
