package cli

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandsRejectUnknownNames builds every command and feeds each
// flag that names an architecture, victim variant or exploit kind a
// value no parser knows. Each must exit non-zero, before doing any
// work, with an error that names the value.
func TestCommandsRejectUnknownNames(t *testing.T) {
	cases := []struct {
		cmd, flag string
	}{
		{"attack", "arch"}, {"attack", "kind"}, {"attack", "variant"},
		{"campaign", "arch"}, {"campaign", "kind"}, {"campaign", "variant"},
		{"connmansim", "arch"},
		{"dbgsh", "arch"},
		{"dnsmitm", "arch"}, {"dnsmitm", "kind"},
		{"gadgetfind", "arch"}, {"gadgetfind", "variant"},
		{"labd", "arch"}, {"labd", "kind"},
		{"pineapple", "arch"}, {"pineapple", "kind"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := t.TempDir()
	pkgs := []string{"build", "-o", bin + string(filepath.Separator)}
	seen := map[string]bool{}
	for _, c := range cases {
		if !seen[c.cmd] {
			seen[c.cmd] = true
			pkgs = append(pkgs, "connlab/cmd/"+c.cmd)
		}
	}
	if out, err := exec.CommandContext(ctx, "go", pkgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range cases {
		t.Run(c.cmd+"/"+c.flag, func(t *testing.T) {
			bad := "bogus-" + c.flag
			var stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, filepath.Join(bin, c.cmd), "-"+c.flag, bad)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("want a non-zero exit, got err=%v\nstdout:\n%s", err, out)
			}
			if !strings.Contains(stderr.String(), `"`+bad+`"`) {
				t.Errorf("error does not name %q: %q", bad, stderr.String())
			}
			if len(out) != 0 {
				t.Errorf("wrote output before refusing the name:\n%s", out)
			}
		})
	}
}
