// Composite pipeline stage running a sequence of RPBs as one unit, through
// per-program stage plans. A plan lists, for one program id, the RPBs that
// hold entries the program's packets could match, in chain order, each
// with the program's bucket span in the table that RPB reads:
//   - unclaimed packets (program_id == 0) skip the whole chain — no RPB
//     acts on them, by the same rule Rpb::process applies per stage;
//   - a claimed packet visits only its plan's steps, and each step scans
//     its span directly (Rpb::step, the routine Rpb::process runs too);
//   - every skipped stage holds no entry the packet can match, so its miss
//     (one table miss per claimed packet per stage) is applied in bulk and
//     every counter advances exactly as if each stage had run.
// A program's plan is compiled on its first packet and stays valid while
// the chain's version is unchanged. Every insert/erase of an RPB's own
// table and every snapshot rebind (Rpb::bind_table) bumps that version, so
// the check is one compare per packet and never walks the RPBs.
// Entry installation keeps addressing individual Rpb objects through
// RunproDataplane::rpb(); the chain only changes how a pass iterates them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dataplane/rpb.h"
#include "rmt/pipeline.h"

namespace p4runpro::dp {

class RpbChain final : public rmt::PipelineStage {
 public:
  RpbChain(std::vector<std::shared_ptr<Rpb>> rpbs, rmt::StageStats* stats)
      : rpbs_(std::move(rpbs)), stats_(stats) {
    for (const auto& rpb : rpbs_) rpb->link_plan_version(&version_);
  }
  ~RpbChain() override {
    for (const auto& rpb : rpbs_) rpb->link_plan_version(nullptr);
  }
  RpbChain(const RpbChain&) = delete;
  RpbChain& operator=(const RpbChain&) = delete;

  void process(rmt::Phv& phv) override {
    if (phv.program_id == 0) return;
    const Plan& plan = plan_for(phv.program_id);
    for (const Step& step : plan.steps) step.rpb->step(step.entries, step.wildcards, phv);
    const auto skipped = static_cast<std::uint32_t>(rpbs_.size() - plan.steps.size());
    if (skipped != 0) {
      if (stats_ != nullptr) stats_->table_misses += skipped;
      phv.pkt_table_misses += skipped;
    }
  }

 private:
  struct Step {
    Rpb* rpb;
    std::span<const RpbTable::Entry> entries;  ///< the program's bucket span
    const RpbTable* wildcards;  ///< the read table iff it has wildcard entries
  };
  struct Plan {
    std::uint64_t version = 0;  ///< chain version compiled against (0 = never)
    std::vector<Step> steps;
  };

  const Plan& plan_for(ProgramId program) {
    if (program >= plans_.size()) plans_.resize(program + 1u);
    Plan& plan = plans_[program];
    if (plan.version != version_) {
      plan.steps.clear();
      for (const auto& rpb : rpbs_) {
        // read_table(): the bound snapshot table when sharded.
        const RpbTable& table = rpb->read_table();
        const auto entries = table.bucket(program);
        const RpbTable* wildcards = table.has_wildcards() ? &table : nullptr;
        if (!entries.empty() || wildcards != nullptr) {
          plan.steps.push_back({rpb.get(), entries, wildcards});
        }
      }
      plan.version = version_;
    }
    return plan;
  }

  std::vector<std::shared_ptr<Rpb>> rpbs_;
  rmt::StageStats* stats_;
  std::uint64_t version_ = 1;
  std::vector<Plan> plans_;  ///< indexed by program id
};

}  // namespace p4runpro::dp
