package main

import (
	"bufio"
	"errors"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/cmdconfig"
	"repro/internal/resolver"
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
// testdata/flags.golden, recorded from its -h output before the shared
// flags moved into internal/cmdconfig: a flag added, removed or renamed,
// or a type or default changed, fails it; usage text does not.
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

// TestNoForwarderIsAUsageError: with no forwarding endpoint the command
// exits 2 and names the flags it needs.
func TestNoForwarderIsAUsageError(t *testing.T) {
	out, err := command("-listen", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, out)
	}
	if want := "recursor: need -forward or -forward-doh/-forward-dot\n"; string(out) != want {
		t.Errorf("output %q, want %q", out, want)
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

// TestForwardersOrder pins the racer's launch order: Do53, DoH, DoT.
func TestForwardersOrder(t *testing.T) {
	want := []cmdconfig.Endpoint{{Kind: resolver.Do53, Addr: "a"}, {Kind: resolver.DoH, Addr: "b"}, {Kind: resolver.DoT, Addr: "c"}}
	if got := forwarders("a", "b", "c"); !reflect.DeepEqual(got, want) {
		t.Errorf("forwarders = %v, want %v", got, want)
	}
}

// TestSignalOnTheFirstLineDrains: SIGTERM sent the moment the first line
// is read drains the server, reports and exits 0, because the handler is
// installed before anything is printed. Run it with -count=20.
func TestSignalOnTheFirstLineDrains(t *testing.T) {
	cmd := command("-listen", "127.0.0.1:0", "-forward", "127.0.0.1:1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("nothing announced")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("exit after SIGTERM: %v", err)
	}
	if !slices.Contains(rest, "recursor: shutting down") {
		t.Errorf("output after SIGTERM: %q", rest)
	}
}
