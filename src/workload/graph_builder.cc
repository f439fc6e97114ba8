#include "workload/graph_builder.h"

#include "common/random.h"

namespace brahma {

namespace {

// Commits one build transaction. A commit that fails cleanly leaves it
// active, and the caller's early return destroys (and so aborts) it; a
// crash abandons it for restart recovery.
Status CommitBuildTxn(Transaction* txn) {
  Status s = txn->Commit();
  if (s.IsCrashed()) txn->Abandon();
  return s;
}

}  // namespace

Status GraphBuilder::Build(const WorkloadParams& params, BuiltGraph* out) {
  if (params.num_partitions + 1 > db_->store().num_partitions()) {
    return Status::InvalidArgument(
        "database has fewer partitions than the workload needs");
  }
  const uint32_t clusters = params.clusters_per_partition();
  if (clusters == 0) {
    return Status::InvalidArgument("objects_per_partition < cluster size");
  }
  Random rng(params.seed);

  // Persistent root and per-partition directory objects (root partition).
  {
    std::unique_ptr<Transaction> txn = db_->Begin();
    ObjectId root;
    Status s = txn->CreateObject(/*p=*/0, params.num_partitions,
                                 /*data_size=*/0, &root);
    if (!s.ok()) return s;
    db_->store().set_persistent_root(root);
    out->root = root;
    for (uint32_t p = 1; p <= params.num_partitions; ++p) {
      ObjectId dir;
      s = txn->CreateObject(/*p=*/0, clusters, /*data_size=*/0, &dir);
      if (!s.ok()) return s;
      s = txn->SetRef(root, p - 1, dir);
      if (!s.ok()) return s;
      out->partition_dirs.push_back(dir);
    }
    s = CommitBuildTxn(txn.get());
    if (!s.ok()) return s;
  }

  // Cluster trees: one transaction per cluster keeps undo chains small.
  out->cluster_roots.assign(params.num_partitions, {});
  std::vector<std::vector<std::vector<ObjectId>>> nodes(
      params.num_partitions);  // [p-1][cluster][node]
  for (uint32_t p = 1; p <= params.num_partitions; ++p) {
    nodes[p - 1].resize(clusters);
    for (uint32_t c = 0; c < clusters; ++c) {
      std::unique_ptr<Transaction> txn = db_->Begin();
      std::vector<ObjectId>& tree = nodes[p - 1][c];
      tree.reserve(WorkloadParams::kClusterSize);
      std::vector<uint8_t> payload(params.data_size);
      for (uint32_t i = 0; i < WorkloadParams::kClusterSize; ++i) {
        for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
        ObjectId oid;
        Status s = txn->CreateObject(static_cast<PartitionId>(p),
                                     WorkloadParams::kNumRefSlots,
                                     params.data_size, &oid);
        if (!s.ok()) return s;
        s = txn->WriteData(oid, payload);
        if (!s.ok()) return s;
        tree.push_back(oid);
        ++out->objects_created;
        if (i > 0) {
          // Node i's parent in a full 4-ary tree is (i - 1) / 4.
          uint32_t parent = (i - 1) / WorkloadParams::kBranch;
          uint32_t slot = (i - 1) % WorkloadParams::kBranch;
          s = txn->SetRef(tree[parent], slot, oid);
          if (!s.ok()) return s;
        }
      }
      // Register the cluster root as a persistent root: the partition's
      // directory object references it.
      Status s = txn->Lock(out->partition_dirs[p - 1], LockMode::kExclusive);
      if (!s.ok()) return s;
      s = txn->SetRef(out->partition_dirs[p - 1], c, tree[0]);
      if (!s.ok()) return s;
      s = CommitBuildTxn(txn.get());
      if (!s.ok()) return s;
      out->cluster_roots[p - 1].push_back(tree[0]);
    }
  }

  // Glue edges: one edge from each node to a node in another cluster C;
  // C is in another partition with probability GLUEFACTOR.
  for (uint32_t p = 1; p <= params.num_partitions; ++p) {
    for (uint32_t c = 0; c < clusters; ++c) {
      std::unique_ptr<Transaction> txn = db_->Begin();
      for (ObjectId node : nodes[p - 1][c]) {
        uint32_t tp = p;  // target partition (1-based)
        if (params.num_partitions > 1 && rng.Bernoulli(params.glue_factor)) {
          do {
            tp = 1 + static_cast<uint32_t>(
                         rng.Uniform(params.num_partitions));
          } while (tp == p);
        }
        uint32_t tc = c;
        if (tp != p) {
          tc = static_cast<uint32_t>(rng.Uniform(clusters));
        } else if (clusters > 1) {
          do {
            tc = static_cast<uint32_t>(rng.Uniform(clusters));
          } while (tc == c);
        }
        const std::vector<ObjectId>& target_tree = nodes[tp - 1][tc];
        ObjectId target =
            target_tree[rng.Uniform(target_tree.size())];
        Status s = txn->Lock(node, LockMode::kExclusive);
        if (!s.ok()) return s;
        s = txn->SetRef(node, WorkloadParams::kGlueSlot, target);
        if (!s.ok()) return s;
      }
      Status s = CommitBuildTxn(txn.get());
      if (!s.ok()) return s;
    }
  }

  // Make sure the analyzer has digested the whole build (the ERTs must be
  // complete before any reorganization or traversal).
  db_->analyzer().Sync();
  return Status::Ok();
}

}  // namespace brahma
