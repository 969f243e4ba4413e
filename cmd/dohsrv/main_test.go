package main

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/cmdconfig"
	"repro/internal/resolver"
	"repro/internal/tlsutil"
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

// TestUpstreamsOrder pins the racer's launch order: Do53, DoT.
func TestUpstreamsOrder(t *testing.T) {
	want := []cmdconfig.Endpoint{{Kind: resolver.Do53, Addr: "a"}, {Kind: resolver.DoT, Addr: "b"}}
	if got := upstreams("a", "b"); !reflect.DeepEqual(got, want) {
		t.Errorf("upstreams = %v, want %v", got, want)
	}
}

// TestListenersServeTheCertificatePair: with -cert/-key, HTTPS and DoT
// both serve the pair, so a client that verifies it against the pair's
// certificate handshakes with each; SIGTERM then drains, reports and
// exits 0.
func TestListenersServeTheCertificatePair(t *testing.T) {
	cert, err := tlsutil.SelfSigned("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	key, err := x509.MarshalPKCS8PrivateKey(cert.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile, keyFile := filepath.Join(dir, "cert.pem"), filepath.Join(dir, "key.pem")
	for file, block := range map[string]*pem.Block{
		certFile: {Type: "CERTIFICATE", Bytes: cert.Certificate[0]},
		keyFile:  {Type: "PRIVATE KEY", Bytes: key},
	} {
		if err := os.WriteFile(file, pem.EncodeToMemory(block), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	leaf, err := x509.ParseCertificate(cert.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(leaf)

	cmd := command("-listen", "127.0.0.1:0", "-dot", "127.0.0.1:0", "-upstream", "127.0.0.1:1",
		"-cert", certFile, "-key", keyFile)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	var dotAddr, httpsAddr string
	for httpsAddr == "" && lines.Scan() {
		f := strings.Fields(lines.Text())
		switch {
		case len(f) == 4 && f[1] == "DoT":
			dotAddr = f[3]
		case len(f) > 1 && strings.HasPrefix(f[1], "https://"):
			httpsAddr = strings.TrimSuffix(strings.TrimPrefix(f[1], "https://"), "/dns-query")
		}
	}
	if dotAddr == "" || httpsAddr == "" {
		t.Fatalf("listeners not announced (DoT %q, HTTPS %q)", dotAddr, httpsAddr)
	}
	for name, addr := range map[string]string{"DoT": dotAddr, "HTTPS": httpsAddr} {
		conn, err := tls.Dial("tcp", addr, &tls.Config{RootCAs: roots, ServerName: "127.0.0.1"})
		if err != nil {
			t.Errorf("%s on %s: %v", name, addr, err)
			continue
		}
		conn.Close()
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
	if len(rest) == 0 || rest[0] != "dohsrv: shutting down" {
		t.Errorf("output after SIGTERM: %q", rest)
	}
}

// TestSignalOnTheFirstLineDrains: SIGTERM sent the moment the first line
// is read drains the server, reports and exits 0, because the handler is
// installed before anything is printed — here the racer's line, printed before the listeners bind. Run it with -count=20.
func TestSignalOnTheFirstLineDrains(t *testing.T) {
	cmd := command("-listen", "127.0.0.1:0", "-upstream", "127.0.0.1:1", "-upstream-dot", "127.0.0.1:1")
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
	if !slices.Contains(rest, "dohsrv: shutting down") {
		t.Errorf("output after SIGTERM: %q", rest)
	}
}
