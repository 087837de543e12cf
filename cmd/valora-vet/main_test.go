package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestUnparseableCompilerOutputExits2 runs valora-vet with a `go` on
// PATH that forwards every command to the real toolchain except `go
// build`, whose -m output it replaces with a line the parser does not
// know. valora-vet must fail with exit status 2, not report the
// package clean.
func TestUnparseableCompilerOutputExits2(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("the stand-in go is a shell script")
	}
	if testing.Short() {
		t.Skip("builds valora-vet and type-checks a package; skipped in -short")
	}
	realGo, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "valora-vet")
	if out, err := exec.Command(realGo, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building valora-vet: %v\n%s", err, out)
	}
	fakeDir := filepath.Join(tmp, "fakego")
	if err := os.Mkdir(fakeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	script := "#!/bin/sh\n" +
		"if [ \"$1\" = build ]; then echo 'compiler chatter in an unknown format' >&2; exit 0; fi\n" +
		"exec '" + realGo + "' \"$@\"\n"
	if err := os.WriteFile(filepath.Join(fakeDir, "go"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-C", "../..", "./internal/sim")
	cmd.Env = append(os.Environ(), "PATH="+fakeDir+string(os.PathListSeparator)+os.Getenv("PATH"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("valora-vet: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "unparseable compiler output line") {
		t.Errorf("valora-vet output does not name the unparseable line:\n%s", out)
	}
}
