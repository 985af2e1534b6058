#include "src/node/node_os.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/log.h"
#include "src/core/messages.h"

namespace gms {

NodeOs::NodeOs(Simulator* sim, Network* net, Cpu* cpu, Disk* disk,
               FrameTable* frames, MemoryService* service, NodeId self,
               CostModel costs, NodeParams params)
    : sim_(sim), net_(net), cpu_(cpu), disk_(disk), frames_(frames),
      service_(service), self_(self), costs_(costs), params_(params) {
  if (params_.free_low == 0) {
    params_.free_low = std::max<uint32_t>(4, frames_->num_frames() / 64);
  }
  if (params_.free_high == 0) {
    params_.free_high = params_.free_low * 2;
  }
}

void NodeOs::Access(const Uid& uid, bool write, EventFn done) {
  stats_.accesses++;
  ResumeAccess(uid, write, sim_->now(), std::move(done));
}

void NodeOs::ResumeAccess(const Uid& uid, bool write, SimTime started,
                          EventFn done) {
  Frame* frame = frames_->Lookup(uid);
  if (frame != nullptr && !frame->pinned()) {
    // Hit. A page of ours sitting in the global list (a self-directed
    // putpage, or a shared page housed for the cluster) is promoted back to
    // local — a free "hit in the global cache" with no transfer.
    if (frame->location() == PageLocation::kGlobal) {
      frames_->SetLocation(frame, PageLocation::kLocal, sim_->now());
      service_->OnPageLoaded(frame);
    } else {
      frames_->Touch(frame, sim_->now());
    }
    if (write) {
      frame->set_dirty(true);
    }
    stats_.local_hits++;
    // The completion time is known now, so record the latency at schedule
    // time and push `done` through unwrapped: the hit path stays a single
    // inline event with no extra closure (and no heap box around `done`).
    const SimTime latency = sim_->now() + params_.hit_cost - started;
    stats_.access_us.Add(ToMicroseconds(latency));
    stats_.access_ns.Record(latency);
    TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kLocalHit, uid,
               static_cast<uint64_t>(latency));
    sim_->After(params_.hit_cost, std::move(done));
    return;
  }
  if ((frame != nullptr && frame->pinned()) || faulting_.contains(uid)) {
    // The page is mid-fill (a fault in flight) or mid-write-back; retry the
    // access when the pin drops.
    waiters_[uid].push_back([this, uid, write, started,
                             done = std::move(done)]() mutable {
      ResumeAccess(uid, write, started, std::move(done));
    });
    return;
  }
  Fault(uid, write, [this, started, done = std::move(done)]() mutable {
    stats_.access_us.Add(ToMicroseconds(sim_->now() - started));
    stats_.access_ns.Record(sim_->now() - started);
    done();
  });
}

void NodeOs::Fault(const Uid& uid, bool write, EventFn done) {
  stats_.faults++;
  faulting_.insert(uid);
  const SimTime started = sim_->now();
  TraceEvent(tracer_, started, self_, TraceEventKind::kFault, uid,
             write ? 1 : 0);
  // The fault is an originating operation: root a trace here and thread the
  // span through the whole resolution (getpage, disk fallback, NFS).
  const SpanRef span =
      TraceBegin(tracer_, started, self_, SpanOp::kFault, write ? 1 : 0);
  cpu_->SubmitKernel(params_.fault_overhead, CpuCategory::kFault,
                     [this, uid, write, started, span,
                      done = std::move(done)]() mutable {
    SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kFaultCpu);
    WithFreeFrame([this, uid, write, started, span,
                   done = std::move(done)]() mutable {
      Frame* frame = frames_->Allocate(uid, PageLocation::kLocal, sim_->now());
      assert(frame != nullptr);
      frame->set_pinned(true);
      frame->set_shared(IsShared(uid));
      // Zero-length when a free frame was on hand; otherwise the synchronous
      // reclaim (victim scan, possibly a blocking dirty write-back).
      SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kReclaim);
      service_->GetPage(uid, [this, frame, write, started,
                              done = std::move(done)](GetPageResult result) mutable {
        if (result.hit) {
          if (result.dirty) {
            // Dirty-global extension: the fetched copy has no disk backing
            // yet, so this node inherits the write-back obligation.
            frame->set_dirty(true);
          }
          FinishFault(frame, write, result.duplicate, started, result.span,
                      std::move(done));
          return;
        }
        ReadFromBackingStore(frame->uid(), [this, frame, write, started,
                                          span = result.span,
                                          done = std::move(done)]() mutable {
          service_->OnPageLoaded(frame);
          FinishFault(frame, write, false, started, span, std::move(done));
        }, result.span);
      }, span);
    });
  });
}

void NodeOs::FinishFault(Frame* frame, bool write, bool duplicate,
                         SimTime started, SpanRef span, EventFn done) {
  frame->set_pinned(false);
  frame->set_duplicated(duplicate);
  if (write) {
    frame->set_dirty(true);
  }
  frames_->Touch(frame, sim_->now());
  const SimTime latency = sim_->now() - started;
  stats_.fault_us.Add(ToMicroseconds(latency));
  stats_.fault_ns.Record(latency);
  TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kFaultDone,
             frame->uid(), static_cast<uint64_t>(latency));
  SpanEnd(tracer_, sim_->now(), self_, span, SpanStatus::kDone,
          static_cast<uint64_t>(latency));
  const Uid uid = frame->uid();
  faulting_.erase(uid);
  done();
  WakeWaiters(uid);
  MaybeWakePageout();
}

void NodeOs::WakeWaiters(const Uid& uid) {
  auto it = waiters_.find(uid);
  if (it == waiters_.end()) {
    return;
  }
  std::vector<EventFn> list = std::move(it->second);
  waiters_.erase(it);
  for (EventFn& fn : list) {
    fn();
  }
}

void NodeOs::WithFreeFrame(EventFn then) {
  if (frames_->free_count() > 0) {
    then();
    return;
  }
  // The pageout daemon fell behind; reclaim synchronously. Prefer a clean
  // victim (freed instantly via the service); fall back to writing the
  // oldest dirty page out first.
  Frame* victim =
      frames_->PickVictim(sim_->now(), params_.global_age_boost,
                          /*require_clean=*/true);
  if (victim != nullptr) {
    service_->EvictClean(victim);
    MaybeWakePageout();
    if (frames_->free_count() > 0) {
      then();
      return;
    }
    // The eviction was absorbed in place (kept as a local global page);
    // retry with the next victim.
    sim_->After(0, [this, then = std::move(then)]() mutable {
      WithFreeFrame(std::move(then));
    });
    return;
  }
  victim = frames_->PickVictim(sim_->now(), params_.global_age_boost);
  if (victim == nullptr) {
    // Everything is pinned (pathologically small memory); retry shortly.
    sim_->After(Microseconds(100), [this, then = std::move(then)]() mutable {
      WithFreeFrame(std::move(then));
    });
    return;
  }
  assert(victim->dirty());
  if (service_->EvictDirty(victim)) {
    // The policy replicated the dirty page into cluster memory and freed
    // the frame; no disk write happened.
    WithFreeFrame(std::move(then));
    return;
  }
  victim->set_pinned(true);
  stats_.disk_writes++;
  if (!IsShared(victim->uid())) {
    swap_resident_.insert(victim->uid());
  }
  disk_->Write(DiskBlockOf(victim->uid()),
               [this, victim, then = std::move(then)]() mutable {
    victim->set_dirty(false);
    victim->set_pinned(false);
    ReleaseCleaned(victim);
    WithFreeFrame(std::move(then));
  });
}

void NodeOs::MaybeWakePageout() {
  if (pageout_running_ || frames_->free_count() >= params_.free_low) {
    return;
  }
  pageout_running_ = true;
  const uint32_t deficit = params_.free_high - frames_->free_count();
  sim_->After(0, [this, deficit] { PageoutRound(deficit); });
}

void NodeOs::PageoutRound(uint32_t remaining) {
  if (remaining == 0 || frames_->free_count() >= params_.free_high) {
    pageout_running_ = false;
    MaybeWakePageout();  // re-arm if we raced below the low watermark again
    return;
  }
  Frame* victim = frames_->PickVictim(sim_->now(), params_.global_age_boost);
  if (victim == nullptr) {
    pageout_running_ = false;
    return;
  }
  if (!victim->dirty()) {
    service_->EvictClean(victim);
    sim_->After(0, [this, remaining] { PageoutRound(remaining - 1); });
    return;
  }
  if (service_->EvictDirty(victim)) {
    sim_->After(0, [this, remaining] { PageoutRound(remaining - 1); });
    return;
  }
  victim->set_pinned(true);
  stats_.disk_writes++;
  if (!IsShared(victim->uid())) {
    swap_resident_.insert(victim->uid());
  }
  disk_->Write(DiskBlockOf(victim->uid()), [this, victim, remaining] {
    victim->set_dirty(false);
    victim->set_pinned(false);
    ReleaseCleaned(victim);
    PageoutRound(remaining - 1);
  });
}

void NodeOs::ReleaseCleaned(Frame* frame) {
  // The page was referenced while pinned for write-back: it is hot, so keep
  // it (reactivation) and let the waiters retry instead of evicting it.
  if (waiters_.contains(frame->uid())) {
    frames_->Touch(frame, sim_->now());
    WakeWaiters(frame->uid());
    return;
  }
  if (params_.promote_on_write) {
    // "A disk write completes as usual but the page is promoted into the
    // global cache so a subsequent fetch does not require a disk read."
    service_->EvictClean(frame);
  } else {
    frames_->Free(frame);
  }
}

void NodeOs::ReadFromBackingStore(const Uid& uid, EventFn loaded,
                                  SpanRef span) {
  // Memory-hierarchy walk: the first attached tier holding the page serves
  // the fill. Checked before the zero-fill test — a page demoted into far
  // memory IS the current data, wherever its durable home is. The promotion
  // decision (evict the far copy once the page is back in RAM) is made now,
  // deterministically, and applied when the transfer lands.
  for (BackingTier* tier : tiers_) {
    if (!tier->Holds(uid)) {
      continue;
    }
    service_->NoteFill(tier->kind() == TierKind::kFarMemory
                           ? FillSource::kFarMemory
                           : FillSource::kLocalDisk);
    const bool promote = tier->kind() == TierKind::kFarMemory &&
                         service_->PromoteOnFarFill(uid);
    tier->ReadPage(uid, [this, uid, tier, promote,
                         loaded = std::move(loaded)]() mutable {
      if (promote) {
        tier->Evict(uid);
        service_->NoteFarPromotion();
      }
      loaded();
    }, span);
    return;
  }
  if (!IsShared(uid) && !swap_resident_.contains(uid)) {
    // First touch of an anonymous page: zero-fill, no I/O.
    service_->NoteFill(FillSource::kZero);
    sim_->After(0, std::move(loaded));
    return;
  }
  const NodeId backing = NodeOfIp(uid.ip());
  if (backing == self_) {
    stats_.disk_reads++;
    service_->NoteFill(FillSource::kLocalDisk);
    disk_->ReadPage(uid, std::move(loaded), span);
    return;
  }
  // Remote file: NFS read from the backing server. The fill is counted at
  // issue so the per-source sum matches getpage_misses even when the read
  // times out.
  service_->NoteFill(FillSource::kNfs);
  stats_.nfs_reads++;
  TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kNfsRead, uid, 0);
  const uint64_t op = next_nfs_op_++;
  PendingNfs pending;
  pending.uid = uid;
  pending.done = std::move(loaded);
  pending.span = span;
  pending.timer = sim_->ScheduleTimer(params_.nfs_timeout, [this, op] {
    auto it = pending_nfs_.find(op);
    if (it == pending_nfs_.end()) {
      return;
    }
    stats_.nfs_timeouts++;
    // The whole unanswered window counts as NFS wait so the fault's span
    // still tiles.
    SpanStep(tracer_, sim_->now(), self_, it->second.span, SpanComp::kNfsWait);
    EventFn done = std::move(it->second.done);
    pending_nfs_.erase(it);
    done();  // completes the fault without data (server unreachable)
  });
  pending_nfs_.emplace(op, std::move(pending));
  cpu_->SubmitKernel(costs_.nfs_client_request, CpuCategory::kFault,
                     [this, uid, backing, op, span] {
    SpanStep(tracer_, sim_->now(), self_, span, SpanComp::kReqGen);
    NfsReadReq req{uid, self_, op};
    req.span = span;
    net_->Send(Datagram{self_, backing, costs_.small_message_bytes(),
                        kMsgNfsReadReq, req});
  });
}

void NodeOs::OnDatagram(Datagram dgram) {
  // Fork a receive span at arrival, exactly as the agent does; the NFS and
  // write-back handlers fold the ISR cost into their service kernels, so
  // the first stamp on the forked span covers queue + ISR + processing.
  if (SpanRef* slot = MutablePayloadSpan(dgram.type, dgram.payload)) {
    *slot = SpanBegin(tracer_, sim_->now(), self_, *slot, dgram.type);
  }
  switch (dgram.type) {
    case kMsgNfsReadReq:
      HandleNfsRead(dgram.payload.get<NfsReadReq>());
      break;
    case kMsgNfsReadReply:
      HandleNfsReply(dgram.payload.get<NfsReadReply>());
      break;
    case kMsgWriteBack:
      HandleWriteBack(dgram.payload.get<WriteBack>());
      break;
    default:
      GMS_LOG_WARN("node %u: unexpected NFS-path message type %u", self_.value,
                   dgram.type);
      break;
  }
}

void NodeOs::HandleNfsRead(const NfsReadReq& msg) {
  cpu_->SubmitKernel(costs_.receive_isr + costs_.nfs_server_processing,
                     CpuCategory::kService, [this, msg] {
    stats_.nfs_served++;
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
    NfsReadReply reply{msg.uid, msg.op_id, true};
    reply.span = msg.span;
    Frame* frame = frames_->Lookup(msg.uid);
    if ((frame != nullptr && frame->pinned()) || faulting_.contains(msg.uid)) {
      // Fill already in flight (concurrent client reads); reply once loaded.
      waiters_[msg.uid].push_back([this, msg, reply] {
        net_->Send(Datagram{self_, msg.client, costs_.page_message_bytes(),
                            kMsgNfsReadReply, reply});
      });
      return;
    }
    if (frame != nullptr) {
      // Server buffer-cache hit. Serving marks our copy duplicated (the
      // client will cache one too).
      frame->set_duplicated(true);
      net_->Send(Datagram{self_, msg.client, costs_.page_message_bytes(),
                          kMsgNfsReadReply, reply});
      return;
    }
    // Server cache miss: read into our cache, then reply.
    faulting_.insert(msg.uid);
    WithFreeFrame([this, msg, reply] {
      Frame* frame = frames_->Allocate(msg.uid, PageLocation::kLocal,
                                       sim_->now());
      assert(frame != nullptr);
      frame->set_pinned(true);
      frame->set_shared(true);
      stats_.nfs_server_disk_reads++;
      disk_->Read(DiskBlockOf(msg.uid), [this, frame, msg, reply] {
        frame->set_pinned(false);
        frame->set_duplicated(true);
        frames_->Touch(frame, sim_->now());
        service_->OnPageLoaded(frame);
        faulting_.erase(msg.uid);
        WakeWaiters(frame->uid());
        MaybeWakePageout();
        net_->Send(Datagram{self_, msg.client, costs_.page_message_bytes(),
                            kMsgNfsReadReply, reply});
      }, msg.span);
    });
  });
}

void NodeOs::HandleWriteBack(const WriteBack& msg) {
  // A holder returned one of our dirty pages (dirty-global extension);
  // write it to the backing store it belongs to.
  cpu_->SubmitKernel(costs_.receive_isr + costs_.put_target,
                     CpuCategory::kService, [this, msg] {
    stats_.writebacks_received++;
    stats_.disk_writes++;
    TraceEvent(tracer_, sim_->now(), self_, TraceEventKind::kWriteBackRecv,
               msg.uid, 0);
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
    if (!IsShared(msg.uid)) {
      swap_resident_.insert(msg.uid);
    }
    // The write-back trace ends only once the page is durable.
    disk_->Write(DiskBlockOf(msg.uid), [this, span = msg.span] {
      SpanEnd(tracer_, sim_->now(), self_, span, SpanStatus::kDone);
    }, msg.span);
  });
}

void NodeOs::HandleNfsReply(const NfsReadReply& msg) {
  cpu_->SubmitKernel(costs_.receive_isr + costs_.get_reply_receipt_data,
                     CpuCategory::kFault, [this, msg] {
    // The reply's own receive span is an off-path leaf; the waiting fault
    // span accounts the whole round trip as NFS wait.
    SpanStep(tracer_, sim_->now(), self_, msg.span, SpanComp::kService);
    auto it = pending_nfs_.find(msg.op_id);
    if (it == pending_nfs_.end()) {
      return;  // timed out already
    }
    sim_->CancelTimer(it->second.timer);
    SpanStep(tracer_, sim_->now(), self_, it->second.span, SpanComp::kNfsWait);
    EventFn done = std::move(it->second.done);
    pending_nfs_.erase(it);
    done();
  });
}

}  // namespace gms
