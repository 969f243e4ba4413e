package proxynet

// StepLabels names the paper's Figure-2 steps, t1..t22 at indexes
// 1..22 (index 0 unused), for the worldstudy -timeline printer. The
// simulator's counts are SimStats, which commands export as the
// campaign_sim_* gauges.
var StepLabels = [23]string{
	1:  "client -> Super Proxy (CONNECT)",
	2:  "Super Proxy -> exit node",
	3:  "exit -> ISP resolver (DoH hostname)",
	4:  "ISP resolver -> exit",
	5:  "exit -> DoH PoP (TCP SYN)",
	6:  "DoH PoP -> exit (SYN-ACK)",
	7:  "exit -> Super Proxy",
	8:  "Super Proxy -> client (200 OK)",
	9:  "client -> Super Proxy (ClientHello)",
	10: "Super Proxy -> exit",
	11: "exit -> DoH PoP (ClientHello)",
	12: "DoH PoP -> exit (ServerHello, TLS 1.3)",
	13: "exit -> Super Proxy",
	14: "Super Proxy -> client",
	15: "client -> Super Proxy (Finished + GET)",
	16: "Super Proxy -> exit",
	17: "exit -> DoH PoP (query)",
	18: "DoH PoP -> authoritative NS",
	19: "authoritative NS -> DoH PoP",
	20: "DoH PoP -> exit (answer)",
	21: "exit -> Super Proxy",
	22: "Super Proxy -> client",
}
