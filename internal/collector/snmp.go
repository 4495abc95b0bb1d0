package collector

import (
	"fmt"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// snmpLine ingests 5-minute SNMP poller output, one CSV row per sample:
//
//	epoch,device,object,instance,value
//	1262304000,chi-per1.net.example.com,cpu5min,,87.5
//	1262304000,CHI-CR1,ifutil,to-chi-cr2,92.0
//	1262304000,chi-cr1,iferrors,to-chi-cr2,340
//
// Timestamps are epoch seconds (the poller already normalizes to UTC) and
// mark the *start* of the 5-minute bin. Objects: cpu5min (router CPU
// percent), ifutil (interface utilization percent), iferrors (corrupted
// packets in the bin).
func (c *Collector) snmpLine(line []byte) error {
	f := c.scr.split(line, ',')
	if len(f) != 5 {
		return fmt.Errorf("want 5 fields, got %d", len(f))
	}
	epoch, ok := parseInt(f[0])
	if !ok {
		return fmt.Errorf("bad epoch %q", f[0])
	}
	start, err := feedTime(time.Unix(epoch, 0), 5*time.Minute)
	if err != nil {
		return err
	}
	end := start.Add(5 * time.Minute)
	router, err := c.canonical(f[1])
	if err != nil {
		return err
	}
	value, ok := parseFloat(f[4])
	if !ok {
		return fmt.Errorf("bad value %q", f[4])
	}
	object, instance := f[2], f[3]
	switch string(object) {
	case "cpu5min":
		if value >= cpuAveragePct {
			c.add(event.CPUHighAverage, start, end, locus.At(locus.Router, router),
				map[string]string{"cpu": string(f[4])})
		}
	case "ifutil":
		if len(instance) == 0 {
			return fmt.Errorf("ifutil without interface instance")
		}
		if value >= linkUtilPct {
			c.add(event.LinkCongestion, start, end,
				locus.Between(locus.Interface, router, string(instance)),
				map[string]string{"util": string(f[4])})
		}
	case "iferrors":
		if len(instance) == 0 {
			return fmt.Errorf("iferrors without interface instance")
		}
		if value >= linkErrorCount {
			c.add(event.LinkLoss, start, end,
				locus.Between(locus.Interface, router, string(instance)),
				map[string]string{"errors": string(f[4])})
		}
	default:
		return fmt.Errorf("unknown SNMP object %q", object)
	}
	return nil
}
