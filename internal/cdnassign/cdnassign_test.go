package cdnassign

import (
	"testing"
	"time"

	"grca/internal/ospf"
	"grca/internal/testnet"
)

// fixture: two CDN nodes on the testnet, one in nyc and one in wdc. The
// agent's prefix is announced at chi-per1 and wdc-per1, so the wdc node is
// closest (distance 0 to its co-located egress) and nyc second.
func fixture(t *testing.T) (*testnet.Net, *Service) {
	t.Helper()
	n := testnet.Build(t.Fatalf)
	n.View.RegisterServer("cdn-wdc-s1", "cdn-wdc", "wdc-per1")
	s, err := New(n.View, []Node{
		{Name: "cdn-nyc", Router: "nyc-per1"},
		{Name: "cdn-wdc", Router: "wdc-per1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, s
}

func TestValidation(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	if _, err := New(n.View, nil); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := New(n.View, []Node{{Name: "x"}}); err == nil {
		t.Error("router-less node accepted")
	}
	if _, err := New(n.View, []Node{
		{Name: "x", Router: "r"}, {Name: "x", Router: "r"},
	}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestAssignClosest(t *testing.T) {
	_, s := fixture(t)
	// wdc-per1 is itself an egress for the agent prefix: distance 0.
	node, err := s.Assign("agent-1", testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "cdn-wdc" {
		t.Errorf("assigned %q, want cdn-wdc (co-located with an egress)", node.Name)
	}
	costs, err := s.Rank("agent-1", testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	if costs[0].IGPDistance != 0 {
		t.Errorf("closest distance = %d, want 0", costs[0].IGPDistance)
	}
	if costs[1].Node.Name != "cdn-nyc" || costs[1].IGPDistance <= 0 {
		t.Errorf("second choice = %+v", costs[1])
	}
	// Address-literal clients work too.
	node, err = s.Assign(testnet.AgentAddr.String(), testnet.T0)
	if err != nil || node.Name != "cdn-wdc" {
		t.Errorf("literal client = %v, %v", node, err)
	}
}

// TestRepairStory reproduces §III-B.2: the egress near the serving node
// fails; the client's traffic detours; PlanRepairs recommends moving the
// client to the node that is closer under the *new* routing — the DNS
// update the CDN operations team applied in parallel with the network
// repair.
func TestRepairStory(t *testing.T) {
	n, s := fixture(t)
	t1 := testnet.T0.Add(2 * time.Hour)
	// The peering failure: wdc's egress withdraws the client prefix, and
	// the wdc–chi backbone plane is down too, so traffic from the wdc
	// node now detours through nyc with larger delays.
	if err := n.BGP.Withdraw(t1, testnet.ClientPrefix, "wdc-per1"); err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"chi-wdc-1", "chi-wdc-2"} {
		if err := n.OSPF.SetWeight(t1, l, ospf.Infinity); err != nil {
			t.Fatal(err)
		}
	}
	repairs, err := s.PlanRepairs([]string{"agent-1"}, t1.Add(-time.Minute), t1.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 1 {
		t.Fatalf("repairs = %+v, want 1", repairs)
	}
	r := repairs[0]
	if r.From.Name != "cdn-wdc" || r.To.Name != "cdn-nyc" || r.Saving <= 0 {
		t.Errorf("repair = %+v", r)
	}
	// With routing unchanged, no repairs are proposed.
	none, err := s.PlanRepairs([]string{"agent-1"}, testnet.T0, testnet.T0.Add(time.Minute))
	if err != nil || len(none) != 0 {
		t.Errorf("steady-state repairs = %+v, %v", none, err)
	}
}

func TestUnreachableClient(t *testing.T) {
	_, s := fixture(t)
	if _, err := s.Rank("203.0.113.9", testnet.T0); err == nil {
		t.Error("unreachable client ranked without error")
	}
	if _, err := s.Assign("203.0.113.9", testnet.T0); err == nil {
		t.Error("unreachable client assigned")
	}
	// Unregistered, unparsable client: ranking fails.
	if _, err := s.Assign("nobody", testnet.T0); err == nil {
		t.Error("unknown client assigned")
	}
}
