package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestMain lets the test binary stand in for the CLI: re-executed with
// EXPRESSO_TEST_CLI=1 it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPRESSO_TEST_CLI") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cli runs the CLI with args and returns its combined output and exit code.
func cli(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPRESSO_TEST_CLI=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); ok {
		return string(out), exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStrayStatementDirectoryIsRejected: b.cfg opens with a statement that,
// were the files joined before parsing, would be read as router A's. Every
// subcommand that reads a config tree must refuse the directory, naming b.cfg.
func TestStrayStatementDirectoryIsRejected(t *testing.T) {
	stray := writeFiles(t, map[string]string{"a.cfg": testnet.StrayA, "b.cfg": testnet.StrayB})
	good := writeFiles(t, map[string]string{"a.cfg": testnet.StrayA})
	for _, args := range [][]string{
		{"check", "-dir", stray},
		{"stats", "-dir", stray},
		{"search-policy", "-dir", stray, "-router", "A", "-policy", "none"},
		{"gate", good, stray},
		{"gate", stray, good},
	} {
		out, code := cli(t, args...)
		if code == 0 || !strings.Contains(out, "b.cfg") || !strings.Contains(out, "line 1") {
			t.Errorf("expresso %s: exit %d, output %q; want a failure naming b.cfg and its line 1",
				strings.Join(args[:2], " "), code, out)
		}
	}
	if out, code := cli(t, "stats", "-dir", good); code != 0 || !strings.Contains(out, "nodes") {
		t.Errorf("expresso stats on the directory without b.cfg: exit %d, output %q", code, out)
	}
}

// TestCheckDirMatchesCheckFile: a directory of self-contained files is the
// same request as their concatenation — same digest, same stage keys, same
// verdict.
func TestCheckDirMatchesCheckFile(t *testing.T) {
	pr1, pr2, ok := strings.Cut(testnet.Figure4, "router PR2")
	if !ok {
		t.Fatal("Figure4 no longer has a router PR2 section to split at")
	}
	dir := writeFiles(t, map[string]string{"1-pr1.cfg": pr1, "2-pr2.cfg": "router PR2" + pr2, "notes.txt": "bgp as 1\n"})
	file := filepath.Join(writeFiles(t, map[string]string{"net.cfg": testnet.Figure4}), "net.cfg")

	// A stage row is STAGE STAT SEED DURATION KEY [note]; durations differ.
	keys := func(out string) (ks []string) {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) >= 5 {
				ks = append(ks, f[0]+"="+f[4])
			}
			if strings.HasPrefix(line, "digest:") || strings.HasPrefix(line, "result:") {
				ks = append(ks, line)
			}
		}
		return ks
	}
	fromDir, code := cli(t, "check", "-dir", dir, "-explain-cache", "-workers", "1")
	if code != 1 {
		t.Fatalf("check -dir: exit %d, want 1 (Figure 4 leaks)\n%s", code, fromDir)
	}
	fromFile, _ := cli(t, "check", "-file", file, "-explain-cache", "-workers", "1")
	if got, want := strings.Join(keys(fromDir), "\n"), strings.Join(keys(fromFile), "\n"); got != want || !strings.Contains(got, "result:") {
		t.Errorf("check -dir and check -file disagree:\n-dir:\n%s\n-file:\n%s", got, want)
	}
}

// TestResultLineOrder: the verdict line lists the properties in the report's
// own order — not a map's, which differs from run to run.
func TestResultLineOrder(t *testing.T) {
	rep := &expresso.Report{}
	for _, k := range []expresso.Kind{
		expresso.RouteHijackFree, expresso.RouteHijackFree,
		expresso.TrafficHijackFree, expresso.BlackHoleFree, expresso.BlackHoleFree, expresso.BlackHoleFree,
	} {
		rep.Violations = append(rep.Violations, expresso.Violation{Kind: k})
	}
	const want = "result:  6 violations: RouteHijackFree=2 TrafficHijackFree=1 BlackHoleFree=3"
	for i := 0; i < 50; i++ {
		if got := resultLine(rep); got != want {
			t.Fatalf("render %d:\n got %q\nwant %q", i, got, want)
		}
	}
	if got := resultLine(&expresso.Report{}); got != "result:  no property violations" {
		t.Errorf("clean report renders %q", got)
	}
}

// TestGenUnknownDataset: an unknown dataset name exits 1 listing the valid
// ones and writes nothing; a known one writes <name>.cfg.
func TestGenUnknownDataset(t *testing.T) {
	dir := t.TempDir()
	out, code := cli(t, "gen", "-dataset", "nope", "-out", dir)
	if code != 1 || !strings.Contains(out, `unknown dataset "nope"`) || !strings.Contains(out, "full-old") {
		t.Errorf("gen -dataset nope: exit %d, output %q", code, out)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("gen -dataset nope wrote %d files", len(files))
	}
	if out, code := cli(t, "gen", "-dataset", "region1", "-peers", "3", "-out", dir); code != 0 {
		t.Fatalf("gen -dataset region1: exit %d, output %q", code, out)
	}
	if out, code := cli(t, "stats", "-file", filepath.Join(dir, "region1.cfg")); code != 0 || !strings.Contains(out, "nodes") {
		t.Errorf("stats on the generated region1.cfg: exit %d, output %q", code, out)
	}
}

// TestGateAndCheckRejectUnrunnableProperties: a selection no stage can run
// in full fails check (exit 1) and gate (exit 2) with the validation
// message under exactly one "expresso: " prefix — egress alone used to pass
// both clean, having checked nothing.
func TestGateAndCheckRejectUnrunnableProperties(t *testing.T) {
	file := filepath.Join(writeFiles(t, map[string]string{"net.cfg": testnet.Figure4}), "net.cfg")
	for _, tc := range []struct{ props, bte, want string }{
		{"egress", "", "call properties.CheckEgressPreference"},
		{"leak,bogus", "", `unknown property "bogus"`},
		{"bte", "", "BlockToExternal requires Options.BTE"},
	} {
		for _, run := range []struct {
			args []string
			code int
		}{
			{[]string{"check", "-props", tc.props, "-bte", tc.bte, "-file", file}, 1},
			{[]string{"gate", "-props", tc.props, "-bte", tc.bte, file, file}, 2},
		} {
			out, code := cli(t, run.args...)
			if code != run.code || !strings.HasPrefix(out, "expresso: ") || !strings.Contains(out, tc.want) ||
				strings.Count(out, "expresso:") != 1 {
				t.Errorf("expresso %s -props %s: exit %d, output %q; want exit %d and one %q line",
					run.args[0], tc.props, code, out, run.code, "expresso: …"+tc.want)
			}
		}
	}
}
