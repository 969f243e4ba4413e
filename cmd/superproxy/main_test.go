package main

import (
	"flag"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs the command itself, on a flag set of its own, when a
// test re-executes this binary through command.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_AS_COMMAND") != "" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command is this test binary started as the command with args.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_AS_COMMAND=1")
	return cmd
}

// TestFlagsMatchGolden holds the command's flag set to
// testdata/flags.golden, recorded from its -h output: a flag added,
// removed or renamed, or a type or default changed, fails it; usage text
// does not.
func TestFlagsMatchGolden(t *testing.T) {
	out, err := command("-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := flagTable(string(out)); got != string(want) {
		t.Errorf("flag set changed:\n%s\nwant:\n%s", got, want)
	}
}

var defaultUsage = regexp.MustCompile(` \(default (.*)\)$`)

// flagTable reduces -h output to one line per flag: its name, its type
// as -h shows it (bool where it shows none) and its default where -h
// shows one (it leaves zero values out).
func flagTable(help string) string {
	var b strings.Builder
	for _, entry := range strings.Split(help, "\n  -")[1:] {
		lines := strings.Split(strings.TrimRight(entry, "\n"), "\n")
		head := strings.Fields(strings.SplitN(lines[0], "\t", 2)[0])
		if len(head) == 1 {
			head = append(head, "bool")
		}
		b.WriteString(strings.Join(head, " "))
		if m := defaultUsage.FindStringSubmatch(lines[len(lines)-1]); m != nil {
			b.WriteString(" " + m[1])
		}
		b.WriteString("\n")
	}
	return b.String()
}
