#include "src/fault/injector.h"

#include <cmath>
#include <utility>

namespace diablo {

FaultInjector::FaultInjector(FaultSchedule schedule, ChainContext* ctx)
    : schedule_(std::move(schedule)), ctx_(ctx) {}

std::vector<int> FaultInjector::PartitionNodes(const FaultEvent& event) const {
  if (!event.by_region) {
    return event.nodes;
  }
  std::vector<int> nodes;
  for (int node = 0; node < ctx_->node_count(); ++node) {
    if (ctx_->deployment().NodeRegion(node) == event.region) {
      nodes.push_back(node);
    }
  }
  return nodes;
}

std::vector<int> FaultInjector::AdversaryNodes(const FaultEvent& event) const {
  if (!event.nodes.empty()) {
    return event.nodes;
  }
  const int n = ctx_->node_count();
  const int count = std::max(
      1, static_cast<int>(std::lround(event.fraction * static_cast<double>(n))));
  std::vector<int> nodes;
  nodes.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Stride evenly across the deployment; distinct for count <= n.
    nodes.push_back(static_cast<int>((static_cast<int64_t>(i) * n) / count));
  }
  return nodes;
}

bool FaultInjector::Install(std::string* error) {
  if (!schedule_.Validate(ctx_->node_count(), error)) {
    return false;
  }
  Simulation* sim = ctx_->sim();
  Network* net = ctx_->net();
  for (const FaultEvent& event : schedule_.events) {
    switch (event.kind) {
      case FaultKind::kCrash: {
        const int node = event.node;
        sim->ScheduleAt(event.at, [this, node] {
          ctx_->SetNodeDown(node, true);
          ++stats_.crashes;
        });
        if (event.until >= 0) {
          sim->ScheduleAt(event.until, [this, node] {
            ctx_->SetNodeDown(node, false);
            ++stats_.restarts;
          });
        }
        break;
      }
      case FaultKind::kPartition: {
        // Unlike a crash, a partitioned node stays alive behind the cut: it
        // only becomes unreachable, and rejoins untouched at heal time.
        const std::vector<int> nodes = PartitionNodes(event);
        sim->ScheduleAt(event.at, [this, net, nodes] {
          for (const int node : nodes) {
            net->SetPartitioned(ctx_->hosts()[static_cast<size_t>(node)], true);
          }
          ++stats_.partitions;
        });
        if (event.until >= 0) {
          sim->ScheduleAt(event.until, [this, net, nodes] {
            for (const int node : nodes) {
              net->SetPartitioned(ctx_->hosts()[static_cast<size_t>(node)], false);
            }
            ++stats_.heals;
          });
        }
        break;
      }
      case FaultKind::kLoss:
        // Loss windows are time-gated inside the network; register now.
        if (event.region_pair) {
          net->AddLossWindow(event.pair_a, event.pair_b, event.at, event.until,
                             event.loss_rate);
        } else {
          net->AddLossWindow(event.at, event.until, event.loss_rate);
        }
        ++stats_.loss_windows;
        break;
      case FaultKind::kDelaySpike: {
        const auto set_extra = [this, net, event](SimDuration extra) {
          if (event.region_pair) {
            net->SetExtraDelay(event.pair_a, event.pair_b, extra);
            return;
          }
          for (int a = 0; a < kRegionCount; ++a) {
            for (int b = a; b < kRegionCount; ++b) {
              net->SetExtraDelay(static_cast<Region>(a), static_cast<Region>(b),
                                 extra);
            }
          }
        };
        const SimDuration extra = event.extra_delay;
        sim->ScheduleAt(event.at, [this, set_extra, extra] {
          set_extra(extra);
          ++stats_.delay_spikes;
        });
        if (event.until >= 0) {
          sim->ScheduleAt(event.until, [set_extra] { set_extra(0); });
        }
        break;
      }
      case FaultKind::kStraggler: {
        const int node = event.node;
        const double factor = event.cpu_factor;
        sim->ScheduleAt(event.at, [this, node, factor] {
          ctx_->SetCpuFactor(node, factor);
          ++stats_.stragglers;
        });
        if (event.until >= 0) {
          sim->ScheduleAt(event.until,
                          [this, node] { ctx_->SetCpuFactor(node, 1.0); });
        }
        break;
      }
      case FaultKind::kEquivocate:
      case FaultKind::kDoubleVote:
      case FaultKind::kWithholdVotes:
      case FaultKind::kCensor:
      case FaultKind::kLazyProposer: {
        // Byzantine windows arm behavior bits on the resolved adversaries;
        // the consensus engines react to the bits, not to the schedule.
        const std::vector<int> nodes = AdversaryNodes(event);
        const uint8_t bits =
            kFaultKindRows[static_cast<size_t>(event.kind)].adversary_bits;
        const FaultKind kind = event.kind;
        std::vector<uint32_t> signers(event.censored_signers.begin(),
                                      event.censored_signers.end());
        sim->ScheduleAt(event.at, [this, nodes, bits, kind, signers] {
          for (const int node : nodes) {
            ctx_->SetAdversary(node, bits, true);
          }
          switch (kind) {
            case FaultKind::kEquivocate:
              ++stats_.equivocate_windows;
              break;
            case FaultKind::kDoubleVote:
              ++stats_.double_vote_windows;
              break;
            case FaultKind::kWithholdVotes:
              ++stats_.withhold_windows;
              break;
            case FaultKind::kCensor:
              ctx_->SetCensoredSigners(signers);
              ++stats_.censor_windows;
              break;
            case FaultKind::kLazyProposer:
              ++stats_.lazy_windows;
              break;
            default:
              break;
          }
        });
        if (event.until >= 0) {
          sim->ScheduleAt(event.until, [this, nodes, bits, kind] {
            for (const int node : nodes) {
              ctx_->SetAdversary(node, bits, false);
            }
            if (kind == FaultKind::kCensor) {
              ctx_->ClearCensoredSigners();
            }
          });
        }
        break;
      }
      case FaultKind::kCount:
        break;
    }
  }
  return true;
}

}  // namespace diablo
