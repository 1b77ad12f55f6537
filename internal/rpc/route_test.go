package rpc

import (
	"strings"
	"testing"

	"switchfs/internal/env"
	"switchfs/internal/wire"
)

type node struct{ served []string }

func serve[P wire.Msg](what string) func(*node, *env.Proc, *wire.Packet, P) {
	return func(n *node, _ *env.Proc, _ *wire.Packet, _ P) { n.served = append(n.served, what) }
}

// TestRoutes checks a table's lookup and the mistakes NewRoutes refuses: a
// message routed twice, a client request routed as a peer message (it would
// never be parked or deduplicated), a peer message routed as a client request
// cannot even be written (Client takes a wire.Request), and a client route
// that does not declare whether it is deduplicated.
func TestRoutes(t *testing.T) {
	rs := NewRoutes(
		Client("mutate", Always, serve[*wire.MutateReq]("mutate")),
		Client("file", func(m *wire.FileReq) bool { return m.Name == "w" }, serve[*wire.FileReq]("file")),
		Peer("ack", serve[*wire.CommitAck]("ack")),
	)
	n := &node{}
	for _, c := range []struct {
		body          wire.Msg
		client, dedup bool
	}{
		{&wire.MutateReq{}, true, true},
		{&wire.FileReq{Name: "r"}, true, false},
		{&wire.FileReq{Name: "w"}, true, true},
		{&wire.CommitAck{}, false, false},
	} {
		r := rs.Of(c.body)
		if r == nil || r.Client != c.client || c.client && r.Dedup(c.body) != c.dedup {
			t.Fatalf("%T: route %+v, want client %v dedup %v", c.body, r, c.client, c.dedup)
		}
		r.Serve(n, nil, &wire.Packet{Body: c.body})
	}
	if got := strings.Join(n.served, " "); got != "mutate file file ack" {
		t.Fatalf("served %q", got)
	}
	if rs.Of(&wire.LinkReq{}) != nil {
		t.Fatal("an unlisted message has a route")
	}

	for _, c := range []struct {
		name  string
		build func()
	}{
		{"routed twice", func() {
			NewRoutes(Peer("a", serve[*wire.CommitAck]("a")), Peer("b", serve[*wire.CommitAck]("b")))
		}},
		{"client request routed as a peer message", func() {
			NewRoutes(Peer("mutate", serve[*wire.MutateReq]("mutate")))
		}},
		{"dedup undeclared", func() {
			Client[*node, *wire.MutateReq]("mutate", nil, serve[*wire.MutateReq]("mutate"))
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", c.name)
				}
			}()
			c.build()
		}()
	}
}
