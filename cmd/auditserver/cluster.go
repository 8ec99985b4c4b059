package main

import (
	"errors"
	"fmt"
	"strings"

	"queryaudit/internal/cluster"
)

// clusterSetup validates the sharded-fleet flag combination and builds
// this node's cluster view. Returns (nil, nil, nil) when unclustered.
//
// The combinations are checked at boot instead of first request because
// a misconfigured node does not merely fail — it serves analysts it
// does not own and silently forks their audit timelines:
//
//   - -cluster-config without -shard-id (or vice versa): the node would
//     not know which ring slice is its own.
//   - -shard-id absent from the descriptor: every request would 421.
func clusterSetup(configPath, shardID string) (*cluster.NodeView, *cluster.Fleet, error) {
	if configPath == "" && shardID == "" {
		return nil, nil, nil
	}
	if configPath == "" {
		return nil, nil, errors.New("-shard-id requires -cluster-config (the descriptor that defines the shard)")
	}
	if shardID == "" {
		return nil, nil, errors.New("-cluster-config requires -shard-id (which shard of the descriptor this node serves)")
	}
	fleet, err := cluster.LoadFleet(configPath)
	if err != nil {
		return nil, nil, err
	}
	view, err := cluster.NewNodeView(fleet, shardID)
	if err != nil {
		return nil, nil, fmt.Errorf("%v (descriptor lists shards %s)", err, strings.Join(fleet.ShardIDs(), ", "))
	}
	return view, fleet, nil
}
