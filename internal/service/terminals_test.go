package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"netart/internal/library"
	"netart/internal/netlist"
)

// TestManyTerminalsGenerate sends one BUF with 80 system terminals,
// each on its own net (n0 also on the buffer): more terminals than the
// two innermost terminal rings hold. Every terminal must get its own
// point, so the request routes and passes route.VerifyEquivalence
// (VerifyRouting) instead of failing with a terminal conflict.
func TestManyTerminalsGenerate(t *testing.T) {
	spec, err := library.Builtin().Template("BUF")
	if err != nil {
		t.Fatal(err)
	}
	d := netlist.NewDesign("buf80")
	if _, err := d.AddModule("b0", "BUF", spec.W, spec.H, spec.Terms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := d.AddSysTerm(name, netlist.In); err != nil {
			t.Fatal(err)
		}
		if err := d.ConnectSys(fmt.Sprintf("n%d", i), name); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Connect("n0", "b0", spec.Terms[0].Name); err != nil {
		t.Fatal(err)
	}
	var calls, nets, io strings.Builder
	for _, err := range []error{
		netlist.WriteCallFile(&calls, d),
		netlist.WriteNetListFile(&nets, d),
		netlist.WriteIOFile(&io, d),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	_, ts := newTestServer(t, Config{Workers: 1, VerifyRouting: true})
	resp, body := postJSON(t, ts.URL+"/v2/generate", Request{
		Name: d.Name, Calls: calls.String(), Netlist: nets.String(), IO: io.String(),
		Format: FormatSummary,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Unrouted != 0 {
		t.Fatalf("%d nets unrouted", out.Unrouted)
	}
}
