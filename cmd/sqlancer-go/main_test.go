package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the CLI's main instead of the tests when the re-exec
// marker is set, so a test can drive the real flag handling in a child
// process (main exits the process on errors).
func TestMain(m *testing.M) {
	if os.Getenv("SQLANCER_GO_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with args in a child process and returns its
// combined output and error.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SQLANCER_GO_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// -disable applies to -mode diff: both compared sessions run with the
// strategy off, and the differential run completes.
func TestDiffModeAcceptsDisable(t *testing.T) {
	out, err := runCLI(t, "-mode", "diff", "-dialect", "sqlite", "-right", "mysql", "-disable", "hashjoin", "-max-dbs", "3")
	if err != nil {
		t.Fatalf("-mode diff -disable hashjoin: %v\n%s", err, out)
	}
	if !strings.Contains(out, "differential: no mismatch in 3 databases") {
		t.Errorf("output = %q, want a clean differential run", out)
	}
	if out, err := runCLI(t, "-mode", "diff", "-disable", "nosuch", "-max-dbs", "1"); err == nil {
		t.Errorf("-disable nosuch exited 0:\n%s", out)
	}
}
