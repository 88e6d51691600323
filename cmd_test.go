package eil_test

// End-to-end CLI integration: build the real binaries and drive the
// generate -> ingest -> search workflow the README documents.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one command into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	eilgen := buildTool(t, dir, "eilgen")
	eilingest := buildTool(t, dir, "eilingest")
	eilBin := buildTool(t, dir, "eil")

	workbooks := filepath.Join(dir, "workbooks")
	sysDir := filepath.Join(dir, "eilsys")

	out := runTool(t, eilgen, "-profile", "small", "-out", workbooks)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("eilgen output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(workbooks, "personnel.jsonl")); err != nil {
		t.Fatalf("personnel file missing: %v", err)
	}

	out = runTool(t, eilingest, "-repo", workbooks, "-out", sysDir)
	if !strings.Contains(out, "ingested") {
		t.Fatalf("eilingest output: %s", out)
	}
	// The system directory is a generational snapshot store: a MANIFEST
	// naming the committed generation plus gen-*/ component containers.
	if _, err := os.Stat(filepath.Join(sysDir, "MANIFEST")); err != nil {
		t.Fatalf("snapshot manifest missing: %v", err)
	}
	gens, err := filepath.Glob(filepath.Join(sysDir, "gen-*"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("no snapshot generations in %s (%v)", sysDir, err)
	}
	for _, f := range []string{"index.snap", "pipeline.snap"} {
		if _, err := os.Stat(filepath.Join(gens[len(gens)-1], f)); err != nil {
			t.Fatalf("snapshot component %s missing: %v", f, err)
		}
	}
	// The synopsis database is rebuilt from the pipeline state on load, so
	// no generation stores it.
	if _, err := os.Stat(filepath.Join(gens[len(gens)-1], "context.snap")); !os.IsNotExist(err) {
		t.Fatalf("context.snap written (stat err %v)", err)
	}

	// Concept + people search through the CLI.
	out = runTool(t, eilBin, "-sys", sysDir, "-person", "Sam White", "-org", "ABC")
	if !strings.Contains(out, "ABC ONLINE") {
		t.Fatalf("people search output missing planted deal:\n%s", out)
	}
	if !strings.Contains(out, "Sam White") {
		t.Fatalf("people tab missing Sam White:\n%s", out)
	}

	// Keyword baseline through the CLI.
	out = runTool(t, eilBin, "-sys", sysDir, "-kw", `"cross tower TSA"`, "-limit", "3")
	if !strings.Contains(out, "documents") {
		t.Fatalf("keyword output: %s", out)
	}

	// Typo suggestion surface.
	out = runTool(t, eilBin, "-sys", sysDir, "-tower", "Strorage Management Services")
	if !strings.Contains(out, "did you mean") {
		t.Fatalf("suggestion line missing:\n%s", out)
	}
}

func TestCLIEvalSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	eileval := buildTool(t, dir, "eileval")
	out := runTool(t, eileval, "-scale", "small", "-exp", "study")
	if !strings.Contains(out, "meta-query 1") || !strings.Contains(out, "38%") {
		t.Fatalf("eileval study output:\n%s", out)
	}
}
