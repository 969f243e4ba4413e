package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../../docs/full_study_output.txt from the run")

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
// testdata/flags.golden, recorded from its -h output before -only
// checked its IDs: a flag added, removed or renamed, or a type or
// default changed, fails it; usage text does not.
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

// TestOnlyRejectsUnprintedIDs: an ID that names no report that would
// print is a usage error before any campaign runs — an unknown ID, a
// miscased one, and an extension without -extensions, which gets a hint.
func TestOnlyRejectsUnprintedIDs(t *testing.T) {
	for _, c := range []struct{ id, want string }{
		{"Table 7", "valid IDs: Table 1, Table 2"},
		{"table 1", `no report "table 1"`},
		{"Table 1,Extension Webload", "(it needs -extensions)"},
	} {
		out, err := command("-only", c.id).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-only %q: err = %v, want exit status 2\n%s", c.id, err, out)
		}
		if !strings.Contains(string(out), c.want) || strings.Contains(string(out), "campaign") {
			t.Errorf("-only %q: output lacks %q or ran the campaign:\n%s", c.id, c.want, out)
		}
	}
}

// TestOnlyPrintsTheNamedReports: -only prints exactly the reports it
// names, in paper order.
func TestOnlyPrintsTheNamedReports(t *testing.T) {
	cmd := command("-scale", "0.05", "-only", "Table 1,Figure 6")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var headers []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "=== ") {
			id, _, _ := strings.Cut(line, ":")
			headers = append(headers, id)
		}
	}
	if want := []string{"=== Table 1", "=== Figure 6"}; !reflect.DeepEqual(headers, want) {
		t.Errorf("headers = %q, want %q", headers, want)
	}
}

// TestShardNeedsResume: a shard's countries recombine only through the
// journal, so -shard without -resume is refused before any country is
// measured.
func TestShardNeedsResume(t *testing.T) {
	out, err := command("-scale", "0.05", "-shard", "1/2").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-shard without -resume: err = %v, want a failing exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "-shard needs -resume") || strings.Contains(string(out), "campaign") {
		t.Errorf("-shard without -resume: output lacks the reason or ran the campaign:\n%s", out)
	}
}

// TestImportRefusesCampaignFlags: a release is a campaign's output, so
// each flag that shapes or reports on a campaign would be ignored by
// -import; each is refused, by name, with exit status 2, before the
// release is read.
func TestImportRefusesCampaignFlags(t *testing.T) {
	release := t.TempDir()
	for _, args := range [][]string{
		{"-scale", "0.1"},
		{"-transports", "doh,do53"},
		{"-resume", t.TempDir()},
		{"-shard", "1/2"},
		{"-chaos-churn", "0.1"},
		{"-chaos-corrupt", "0.1"},
		{"-chaos-reset", "0.1"},
		{"-metrics", "-"},
	} {
		out, err := command(append([]string{"-import", release}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-import with %s: err = %v, want exit status 2\n%s", args[0], err, out)
		}
		if !strings.Contains(string(out), "would ignore "+args[0]) || strings.Contains(string(out), "campaign") {
			t.Errorf("-import with %s: output does not name it or ran the campaign:\n%s", args[0], out)
		}
	}
}

// TestImportSummarySaysMismatchesAreUnknown: a release carries kept
// clients only, so the stderr summary of an imported run says its
// mismatch count is not in the release instead of printing 0. -seed,
// which the import's fresh validation runs read, is accepted.
func TestImportSummarySaysMismatchesAreUnknown(t *testing.T) {
	release := t.TempDir()
	if out, err := command("-seed", "11", "-scale", "0.05", "-export", release, "-only", "Table 3").CombinedOutput(); err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}
	cmd := command("-seed", "11", "-import", release, "-only", "Table 3")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if out, err := cmd.Output(); err != nil {
		t.Fatalf("import: %v\n%s%s", err, stderr.Bytes(), out)
	}
	if !strings.Contains(stderr.String(), "analyzed countries, mismatches discarded: not in a CSV release\n") {
		t.Errorf("the import's summary does not say its mismatches are unknown:\n%s", stderr.Bytes())
	}
}

// TestShardsRecombineThroughTheJournal runs a campaign unsharded, then
// as shards 1/2 and 2/2 on one -resume directory, then without -shard
// over that directory: the recombining run's dataset.csv,
// atlas_do53.csv, stdout report and -metrics file are the unsharded
// run's, byte for byte.
func TestShardsRecombineThroughTheJournal(t *testing.T) {
	journal := t.TempDir()
	// run runs the campaign with extra flags, exporting into and writing
	// its metrics beside a directory of its own, and returns that
	// directory and its stdout.
	run := func(extra ...string) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		args := append([]string{"-seed", "11", "-scale", "0.1", "-export", dir, "-metrics", filepath.Join(dir, "metrics.txt")}, extra...)
		var stderr bytes.Buffer
		cmd := command(args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("worldstudy %q: %v\n%s", args, err, stderr.Bytes())
		}
		return dir, out
	}
	plain, want := run()
	run("-shard", "1/2", "-resume", journal)
	run("-shard", "2/2", "-resume", journal)
	joined, got := run("-resume", journal)
	if !bytes.Equal(got, want) {
		t.Error("the recombining run's report differs from the unsharded run's")
	}
	for _, name := range []string{"dataset.csv", "atlas_do53.csv", "metrics.txt"} {
		a, errA := os.ReadFile(filepath.Join(plain, name))
		b, errB := os.ReadFile(filepath.Join(joined, name))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", name, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("the recombining run's %s differs from the unsharded run's", name)
		}
	}
}

// TestPublishedReport runs the study EXPERIMENTS.md reports — seed 2021,
// scale 2.7, with the extensions — and holds its stdout to
// docs/full_study_output.txt, whose first line is the run's stderr
// timing line and is not compared. -update rewrites the file: the new
// run's first stderr line, then its stdout.
func TestPublishedReport(t *testing.T) {
	const published = "../../docs/full_study_output.txt"
	cmd := command("-scale", "2.7", "-extensions")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	if *update {
		timing, _, _ := strings.Cut(stderr.String(), "\n")
		if err := os.WriteFile(published, append([]byte(timing+"\n"), out...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(published)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := strings.Cut(string(file), "\n")
	if got := string(out); got != want {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("stdout line %d differs from %s line %d (go test ./cmd/worldstudy -run TestPublishedReport -update rewrites it):\n got %q\nwant %q", i+1, published, i+2, g, w)
				return
			}
		}
	}
}
