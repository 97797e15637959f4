package expresso

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/testnet"
)

func TestLoadMalformedConfig(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"statement before router", "bgp as 5\n", "before any 'router'"},
		{"empty text", "", "no 'router' sections"},
		{"comments only", "// nothing here\n# nor here\n", "no 'router' sections"},
		{"bad prefix", "router A\nbgp network 999.0.0.0/8\n", "config:"},
	}
	for _, tc := range cases {
		net, err := Load(tc.text)
		if err == nil {
			t.Errorf("%s: Load succeeded (%v), want error", tc.name, net)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadDirNonexistent(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "does-not-exist")); err == nil {
		t.Fatal("LoadDir on a nonexistent directory succeeded")
	}
}

func TestLoadDirNoConfigs(t *testing.T) {
	dir := t.TempDir()
	// An unrelated file must not count as a configuration.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("router A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("LoadDir on a directory without *.cfg files succeeded")
	}
	if !strings.Contains(err.Error(), "no router definitions") {
		t.Errorf("err %q does not explain the empty directory", err)
	}
}

func TestLoadDirMalformedFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.cfg"), []byte("bgp as 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("LoadDir with a malformed *.cfg succeeded")
	}
	if !strings.Contains(err.Error(), "bad.cfg") {
		t.Errorf("err %q does not name the offending file", err)
	}
}

func TestLoadDirValid(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "net.cfg"), []byte(testnet.Figure4Fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if got := net.Topo.Statistics().Nodes; got != 2 {
		t.Errorf("nodes = %d, want 2", got)
	}
}

// TestStrayStatementFileIsRejected: the directory the one-reader rule exists
// for (see testnet.StrayB).
func TestStrayStatementFileIsRejected(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{"a.cfg": testnet.StrayA, "b.cfg": testnet.StrayB} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, readErr := ReadConfig(dir)
	_, loadErr := LoadDir(dir)
	for what, err := range map[string]error{"ReadConfig": readErr, "LoadDir": loadErr} {
		if err == nil {
			t.Errorf("%s accepted a directory whose b.cfg starts outside any router", what)
		} else if msg := err.Error(); !strings.Contains(msg, "b.cfg") || !strings.Contains(msg, "line 1") {
			t.Errorf("%s: err %q does not name b.cfg and the line within it", what, msg)
		}
	}
}

// TestReadConfigDirIsTheConcatenation: a directory whose files each stand
// alone reads as their concatenation in name order — so its config digest,
// and with it every stage key, is the single file's.
func TestReadConfigDirIsTheConcatenation(t *testing.T) {
	pr1, pr2, ok := strings.Cut(testnet.Figure4, "router PR2")
	if !ok {
		t.Fatal("Figure4 no longer has a router PR2 section to split at")
	}
	dir := t.TempDir()
	for name, text := range map[string]string{"10-pr1.cfg": pr1, "20-pr2.cfg": "router PR2" + pr2, "README": "bgp as 1\n"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := ReadConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pipeline.CanonicalConfig(text), pipeline.CanonicalConfig(testnet.Figure4); got != want {
		t.Errorf("directory text is canonically\n%s\nwant Figure4's\n%s", got, want)
	}
	if got, want := ReportDigest(text, Options{}), ReportDigest(testnet.Figure4, Options{}); got != want {
		t.Errorf("report digest %s, want %s", got, want)
	}
	file := filepath.Join(dir, "10-pr1.cfg")
	if got, err := ReadConfig(file); err != nil || got != pr1 {
		t.Errorf("ReadConfig(file) = %q, %v; want the file's bytes", got, err)
	}
}
