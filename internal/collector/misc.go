package collector

import (
	"fmt"
	"strings"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// parseTACACS ingests the command accounting log, pipe-separated:
//
//	2010-01-02T03:04:05-05:00|chi-cr1|opsuser|cost-out interface to-chi-cr2
//	2010-01-02T03:09:05-05:00|chi-cr1|opsuser|cost-in interface to-chi-cr2
//	2010-01-02T03:04:05Z|chi-per1|provteam|mvpn custA add
//
// Timestamps are RFC 3339 with arbitrary zone offsets (TACACS servers in
// different regions stamp differently); devices may be any alias.
// Commands recognized: "cost-out interface X" / "cost-in interface X"
// (Table I's operator cost commands) and "mvpn <vrf> add|remove" (the PIM
// application's configuration change, Table VII).
func (c *Collector) parseTACACS(line string) error {
	parts := strings.Split(line, "|")
	if len(parts) != 4 {
		return fmt.Errorf("want 4 fields, got %d", len(parts))
	}
	at, err := time.Parse(time.RFC3339, parts[0])
	if err != nil {
		return fmt.Errorf("bad timestamp %q", parts[0])
	}
	if at, err = feedTime(at, 0); err != nil {
		return err
	}
	router, err := c.Aliases.Canonical(parts[1])
	if err != nil {
		return err
	}
	user, command := parts[2], strings.TrimSpace(parts[3])
	fields := strings.Fields(command)
	if len(fields) == 0 {
		return fmt.Errorf("empty command")
	}
	attrs := map[string]string{"user": user, "command": command}
	switch fields[0] {
	case "cost-out", "cost-in":
		if len(fields) != 3 || fields[1] != "interface" {
			return fmt.Errorf("malformed cost command %q", command)
		}
		name := event.CommandCostOut
		if fields[0] == "cost-in" {
			name = event.CommandCostIn
		}
		c.add(name, at, at, locus.Between(locus.Interface, router, fields[2]), attrs)
	case "mvpn":
		if len(fields) != 3 || (fields[2] != "add" && fields[2] != "remove") {
			return fmt.Errorf("malformed mvpn command %q", command)
		}
		attrs["vrf"] = fields[1]
		c.add(event.PIMConfigChange, at, at, locus.At(locus.Router, router), attrs)
	default:
		// Other commands are routine; nothing to detect.
	}
	return nil
}

// parseWorkflow ingests the provisioning/workflow system's activity log:
//
//	2010-01-02T03:04:05Z|chi-per1|TKT0042|provision-customer
//
// Every record yields a "Provisioning activity" event; when
// EmitGenericSignatures is on, a per-action series "workflow:<action>" is
// also emitted — the candidate time series of the §IV-B correlation study.
func (c *Collector) parseWorkflow(line string) error {
	parts := strings.Split(line, "|")
	if len(parts) != 4 {
		return fmt.Errorf("want 4 fields, got %d", len(parts))
	}
	at, err := time.Parse(time.RFC3339, parts[0])
	if err != nil {
		return fmt.Errorf("bad timestamp %q", parts[0])
	}
	if at, err = feedTime(at, 0); err != nil {
		return err
	}
	router, err := c.Aliases.Canonical(parts[1])
	if err != nil {
		return err
	}
	ticket, action := parts[2], parts[3]
	loc := locus.At(locus.Router, router)
	c.add(event.ProvisioningActivity, at, at, loc,
		map[string]string{"ticket": ticket, "action": action})
	if c.EmitGenericSignatures {
		c.add("workflow:"+action, at, at, loc, nil)
	}
	return nil
}

// parseLayer1 ingests layer-1 element logs, pipe-separated with a slashed
// local-office date and explicit numeric zone:
//
//	2010/01/02 03:04:05 -0500|sonet-chi-per1-a|SONET-APS|protection switch
//	2010/01/02 03:04:05 +0000|mesh-nyc-cr1|MESH-RESTORE|fast
//
// Event kinds: SONET-APS (SONET restoration) and MESH-RESTORE with a
// "fast" or "regular" detail (the optical-mesh restorations of Table I).
func (c *Collector) parseLayer1(line string) error {
	parts := strings.Split(line, "|")
	if len(parts) != 4 {
		return fmt.Errorf("want 4 fields, got %d", len(parts))
	}
	at, err := time.Parse("2006/01/02 15:04:05 -0700", parts[0])
	if err != nil {
		return fmt.Errorf("bad timestamp %q", parts[0])
	}
	if at, err = feedTime(at, 0); err != nil {
		return err
	}
	device, kind, detail := parts[1], parts[2], parts[3]
	if _, ok := c.Topo.L1[device]; !ok {
		return fmt.Errorf("unknown layer-1 device %q", device)
	}
	loc := locus.At(locus.Layer1Device, device)
	attrs := map[string]string{"detail": detail}
	switch kind {
	case "SONET-APS":
		c.add(event.SONETRestoration, at, at, loc, attrs)
	case "MESH-RESTORE":
		switch detail {
		case "fast":
			c.add(event.OpticalFast, at, at, loc, attrs)
		case "regular":
			c.add(event.OpticalRegular, at, at, loc, attrs)
		default:
			return fmt.Errorf("unknown mesh restoration type %q", detail)
		}
	default:
		return fmt.Errorf("unknown layer-1 event %q", kind)
	}
	return nil
}
