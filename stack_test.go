// The served stack is built by core.StackConfig alone: the serving
// commands start without the offline pipeline, and the commands that
// take the whole stack on their command line list every stack flag.
package main

import (
	"flag"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"queryaudit/internal/core"
)

// TestServingCommandsSkipAuditlog: auditserver and auditdb do not
// depend on internal/auditlog, the offline pipeline.
func TestServingCommandsSkipAuditlog(t *testing.T) {
	for _, cmd := range []string{"auditserver", "auditdb"} {
		out, err := exec.Command("go", "list", "-deps", "./cmd/"+cmd).Output()
		if err != nil {
			t.Fatalf("go list -deps ./cmd/%s: %v", cmd, err)
		}
		if slices.Contains(strings.Fields(string(out)), "queryaudit/internal/auditlog") {
			t.Errorf("cmd/%s depends on internal/auditlog; build its stack with core.StackConfig", cmd)
		}
	}
}

// TestStackFlagsListed: auditserver -h and auditreport -h list every
// flag core.StackConfig.RegisterFlags declares.
func TestStackFlagsListed(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary builds in -short mode")
	}
	var stack core.StackConfig
	fs := flag.NewFlagSet("stack", flag.ContinueOnError)
	stack.RegisterFlags(fs)
	dir := t.TempDir()
	for _, cmd := range []string{"auditserver", "auditreport"} {
		bin := filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
		out, _ := exec.Command(bin, "-h").CombinedOutput()
		listed := map[string]bool{}
		for _, m := range helpFlag.FindAllSubmatch(out, -1) {
			listed[string(m[1])] = true
		}
		fs.VisitAll(func(f *flag.Flag) {
			if !listed[f.Name] {
				t.Errorf("%s -h does not list the stack flag -%s", cmd, f.Name)
			}
		})
	}
}
