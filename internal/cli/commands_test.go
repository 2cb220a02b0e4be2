package cli_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandExitCodes builds the commands and runs each on tiny
// inputs, asserting the exit-code conventions of this package: an
// unknown name or an out-of-range flag value is a usage mistake
// (Usagef or the flag package, exit 2) reported with the name or the
// flag as given, a retired flag is one too, a failure past the command
// line exits 1, and a valid value runs (exit 0).
func TestCommandExitCodes(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go tool is needed to build the commands: %v", err)
	}
	cmds := []string{"capacity", "crosscheck", "delayanalysis", "hidec", "hided", "hidenet",
		"hideport", "hidesim", "hidetap", "report", "sweep", "timeline", "tracegen"}
	bin := t.TempDir()
	build := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, c := range cmds {
		build = append(build, "repro/cmd/"+c)
	}
	if out, err := exec.Command(goTool, build...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		cmd    string
		args   []string
		code   int
		stderr string // must appear in stderr
	}{
		{"capacity", []string{"-ports", "-5"}, 2, "-ports"},
		{"capacity", []string{"-interval", "-1s"}, 2, "-interval"},
		{"crosscheck", []string{"-seeds", "0"}, 2, "-seeds"},
		{"delayanalysis", []string{"-sweep", "Ports"}, 2, "-sweep"},
		{"delayanalysis", []string{"-sweep", "ports"}, 0, ""},
		{"hidec", []string{"-device", "iphone"}, 2, `"iphone"`},
		{"hided", []string{"-scenario", "NoSuchPlace"}, 2, "-scenario"},
		{"hideport", []string{"-file", "/nonexistent"}, 1, "/nonexistent"},
		{"hidenet", []string{"-scenario", "NoSuchPlace"}, 2, `"NoSuchPlace"`},
		{"hidenet", []string{"-device", "iphone"}, 2, `"iphone"`},
		{"hidenet", []string{"-loss", "-0.3"}, 2, "-loss"},
		{"hidenet", []string{"-loss", "NaN"}, 2, "-loss"},
		{"hidenet", []string{"-loss", "1.5"}, 2, "-loss"},
		{"hidenet", []string{"-minutes", "-5"}, 2, "-minutes"},
		{"hidesim", []string{"-device", "iphone"}, 2, `"iphone"`},
		{"hidesim", []string{"-ess", "-ess-scenario", "NoSuchPlace"}, 2, `"NoSuchPlace"`},
		{"hidesim", []string{"-fault", "all"}, 2, "-fault"},
		{"hidesim", []string{"-ess", "-ess-roam", "NaN"}, 2, "RoamRate"},
		{"hidesim", []string{"-ess", "-ess-roam", "0.5,-1"}, 2, "RoamRate"},
		{"hidesim", []string{"-ess", "-ess-roam", "fast"}, 2, "-ess-roam"},
		{"hidesim", []string{"-ess", "-ess-dsloss", "2"}, 2, "DSLoss"},
		{"hidesim", []string{"-ess", "-ess-dsloss", "-1"}, 2, "DSLoss"},
		{"hidesim", []string{"-ess", "-ess-dsloss", "NaN"}, 2, "DSLoss"},
		{"hidesim", []string{"-ess", "-ess-duration", "-5s"}, 2, "Duration"},
		{"hidesim", []string{"-ess", "-ess-jitter", "Inf"}, 2, "RefreshJitter"},
		{"hidesim", []string{"-ess", "-ess-jitter", "1e300"}, 2, "RefreshJitter"},
		{"hidesim", []string{"-ess", "-ess-jitter", "-0.5"}, 2, "RefreshJitter"},
		{"hidesim", []string{"-ess", "-ess-aps", "0"}, 2, "-ess-aps"},
		{"hidesim", []string{"-ess", "-ess-aps", "70000"}, 2, "70000 APs"},
		{"hidesim", []string{"-ess", "-ess-stations", "-3"}, 2, "-ess-stations"},
		{"hidetap", []string{"-inject", "70000"}, 2, "-inject"},
		{"hidetap", []string{"-inject", "-3"}, 2, "-inject"},
		{"hidetap", []string{"-n", "-1"}, 2, "-n"},
		{"hidetap", []string{"-timeout", "-1s"}, 2, "-timeout"},
		{"report", []string{"-j", "-3"}, 2, "-j"},
		{"sweep", []string{"-base", "NoSuchPlace"}, 2, `"NoSuchPlace"`},
		{"sweep", []string{"-device", "iphone"}, 2, `"iphone"`},
		{"sweep", []string{"-format", "bogus"}, 2, "-format"},
		{"sweep", []string{"-useful", "2"}, 2, "-useful"},
		{"timeline", []string{"-scenario", "NoSuchPlace"}, 2, `"NoSuchPlace"`},
		{"timeline", []string{"-device", "iphone"}, 2, `"iphone"`},
		{"timeline", []string{"-useful", "2"}, 2, "-useful"},
		{"timeline", []string{"-useful", "-1"}, 2, "-useful"},
		{"timeline", []string{"-window", "-1m"}, 2, "-window"},
		{"tracegen", []string{"-scenario", "NoSuchPlace"}, 2, `"NoSuchPlace"`},
		{"tracegen", []string{"-scenario", "sTARBUCKS"}, 0, ""},
	} {
		t.Run(c.cmd+" "+strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, c.cmd), c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr does not mention %s:\n%s", c.stderr, stderr.String())
			}
		})
	}
}
