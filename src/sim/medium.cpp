#include "sim/medium.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hpp"
#include "sim/radio_device.hpp"

namespace ble::sim {

namespace {
double dbm_to_mw(double dbm) noexcept { return std::pow(10.0, dbm / 10.0); }
double mw_to_dbm(double mw) noexcept { return 10.0 * std::log10(mw); }

/// Records ended longer ago than this retire: long enough for every frame
/// that overlapped them to have been delivered.
constexpr Duration kRetention = 10_ms;
/// Initial ring size; it doubles whenever it fills.
constexpr std::size_t kInitialRing = 16;
/// The pair cache's side: n² slots, n the attach count rounded up to a
/// power of two, at most this (so at most 1024 slots, 48 KiB).
constexpr std::size_t kMaxPairSide = 32;
}  // namespace

RadioMedium::RadioMedium(Scheduler& scheduler, Rng rng, PathLossModel path_loss,
                         CaptureModel capture, MediumParams params)
    : scheduler_(scheduler),
      rng_(rng),
      path_loss_(std::move(path_loss)),
      capture_(capture),
      params_(params),
      noise_mw_(dbm_to_mw(params_.noise_floor_dbm)),
      noise_dbm_(mw_to_dbm(noise_mw_)) {}

void RadioMedium::attach(RadioDevice& device) {
    device.listen_state_ = ListenState{};
    device.listen_state_.attach_order = next_attach_order_++;
    pair_side_ = std::min(std::bit_ceil(next_attach_order_), kMaxPairSide);
}

void RadioMedium::detach(RadioDevice& device) noexcept {
    if (device.listen_state_.active) remove_listener(device, device.listen_state_.channel);
    // A held transmission keeps a sender pointer only for exclusion checks
    // and power; clear it so a device destroyed mid-frame cannot dangle.
    for (std::uint64_t id = front_id_; id < next_tx_id_; ++id) {
        Transmission* tx = find(id);
        if (tx->sender == &device) tx->sender = nullptr;
    }
}

void RadioMedium::insert_listener(RadioDevice& device, Channel channel) {
    ListenerList& list = listeners_[channel];
    const std::uint64_t order = device.listen_state_.attach_order;
    // Keep the list sorted by attach order so its walk order equals the
    // historical all-device walk restricted to this channel.  Appending is
    // the hot case (a device re-opening its receive window lands back where
    // it was), so it skips the ordered insert entirely.
    if (list.empty() || list.back()->listen_state_.attach_order < order) {
        list.push_back(&device);
        return;
    }
    const auto pos =
        std::lower_bound(list.begin(), list.end(), order,
                         [](const RadioDevice* d, std::uint64_t attach_order) {
                             return d->listen_state_.attach_order < attach_order;
                         });
    list.insert(pos, &device);
}

void RadioMedium::remove_listener(RadioDevice& device, Channel channel) noexcept {
    ListenerList& list = listeners_[channel];
    if (!list.empty() && list.back() == &device) {  // mirror of the append fast path
        list.pop_back();
        return;
    }
    list.erase_value(&device);
}

void RadioMedium::start_listening(RadioDevice& device, Channel channel) {
    ListenState& state = device.listen_state_;
    if (state.active && state.channel == channel) {
        state.locked_tx = 0;  // re-listening on the same channel drops any sync
        return;
    }
    if (state.active) remove_listener(device, state.channel);
    state.channel = channel;
    state.active = true;
    state.locked_tx = 0;  // switching channels drops any sync
    insert_listener(device, channel);
}

bool RadioMedium::is_receiving(const RadioDevice& device) const noexcept {
    const ListenState& state = device.listen_state_;
    return state.active && state.locked_tx != 0;
}

void RadioMedium::stop_listening(RadioDevice& device) noexcept {
    ListenState& state = device.listen_state_;
    if (state.active) remove_listener(device, state.channel);
    state.active = false;
    state.locked_tx = 0;
}

std::size_t RadioMedium::pair_slot(const RadioDevice& sender,
                                   const RadioDevice& receiver) const noexcept {
    return (sender.listen_state_.attach_order % pair_side_) * pair_side_ +
           receiver.listen_state_.attach_order % pair_side_;
}

double RadioMedium::mean_loss_db(const RadioDevice& sender, const RadioDevice& receiver) {
    if (pair_loss_.size() != pair_side_ * pair_side_) {
        pair_loss_.assign(pair_side_ * pair_side_, PairLoss{});  // grown by attach: start cold
    }
    PairLoss& slot = pair_loss_[pair_slot(sender, receiver)];
    const Position sp = sender.position();
    const Position rp = receiver.position();
    const std::size_t walls = path_loss_.walls().size();
    // Walls are only ever added, so their count versions the wall set.
    if (slot.walls != walls || slot.sender_pos.x != sp.x || slot.sender_pos.y != sp.y ||
        slot.receiver_pos.x != rp.x || slot.receiver_pos.y != rp.y) {
        slot = PairLoss{sp, rp, walls, path_loss_.mean_loss_db(sp, rp)};
    }
    return slot.mean_db;
}

double RadioMedium::rx_power_dbm(Transmission& tx, const RadioDevice& receiver) {
    for (const RxPower& memo : tx.rx_power_dbm) {
        if (memo.receiver == &receiver) return memo.dbm;
    }
    // One fading draw per (frame, receiver): channel hopping decorrelates
    // consecutive frames, so each frame sees a fresh fade around the mean
    // loss (PathLossModel::sample_loss_db, with the mean cached per pair).
    const double loss =
        tx.sender == nullptr
            ? 200.0
            : mean_loss_db(*tx.sender, receiver) +
                  rng_.normal(0.0, path_loss_.params().fading_sigma_db);
    const double power = (tx.sender ? tx.sender->tx_power_dbm() : 0.0) - loss;
    tx.rx_power_dbm.push_back(RxPower{&receiver, power});
    return power;
}

RadioMedium::Transmission* RadioMedium::find(std::uint64_t tx_id) const noexcept {
    if (tx_id < front_id_ || tx_id >= next_tx_id_) return nullptr;
    return ring_[tx_id & (ring_.size() - 1)].get();
}

RadioMedium::Transmission& RadioMedium::hold(std::uint64_t tx_id) {
    if (tx_id - front_id_ == ring_.size()) {
        // Full (or not yet built): double it, re-placing the held records
        // by their ids.  Records are heap objects, so nothing points into
        // the ring itself.
        std::vector<std::unique_ptr<Transmission>> grown(
            ring_.empty() ? kInitialRing : 2 * ring_.size());
        for (std::uint64_t id = front_id_; id < tx_id; ++id) {
            grown[id & (grown.size() - 1)] = std::move(ring_[id & (ring_.size() - 1)]);
        }
        ring_ = std::move(grown);
    }
    std::unique_ptr<Transmission> record;
    if (spare_tx_) {
        record = std::move(spare_tx_);
        spare_tx_ = std::move(record->next_spare);
        record->rx_power_dbm.clear();
    } else {
        record = std::make_unique<Transmission>();
    }
    record->id = tx_id;
    std::unique_ptr<Transmission>& slot = ring_[tx_id & (ring_.size() - 1)];
    slot = std::move(record);
    return *slot;
}

std::uint64_t RadioMedium::transmit(RadioDevice& device, Channel channel, AirFrame frame) {
    // Half-duplex: transmitting suspends any reception in progress.
    stop_listening(device);
    device.transmitting_ = true;

    const std::uint64_t id = next_tx_id_++;
    Transmission& stored = hold(id);
    stored.sender = &device;
    stored.channel = channel;
    stored.start = scheduler_.now();
    stored.end = stored.start + frame.duration();
    stored.frame = std::move(frame);
    // Ids are monotonic, so appending keeps the per-channel view id-ordered.
    channel_active_[channel].push_back(&stored);

    if (bus_.active()) {
        obs::TxStart event;
        event.time = stored.start;
        event.tx_id = id;
        event.channel = channel;
        event.sender = device.name();
        event.bytes = stored.frame.bytes;
        event.duration = stored.frame.duration();
        event.tx_power_dbm = device.tx_power_dbm();
        event.sender_device = &device;
        event.frame = &stored.frame;
        bus_.emit(event);
    }

    // Idle listeners on this channel lock onto the new frame if it is loud
    // enough. Listeners already locked on an earlier frame, or that started
    // listening mid-frame, cannot sync (no preamble for them) — the frame
    // only interferes.  The interest list is the attach-order walk filtered
    // to (active, this channel), so fading draws happen in attach order.
    for (RadioDevice* d : listeners_[channel]) {
        if (d == &device) continue;
        ListenState& state = d->listen_state_;
        if (state.locked_tx != 0 || d->transmitting()) continue;
        if (rx_power_dbm(stored, *d) >= params_.sensitivity_dbm) {
            state.locked_tx = id;
        }
    }

    // The finish event must fire even if the sender detaches mid-frame — the
    // medium outlives every frame, and finish_transmission tolerates a gone
    // sender, so there is never a reason to cancel it.
    (void)scheduler_.schedule_at(  // injectable-lint: allow(D4) -- see above
        stored.end, [this, id] { finish_transmission(id); });
    return id;
}

void RadioMedium::flush_rx_batch() {
    if (rx_batch_.empty()) return;
    bus_.emit_batch(rx_batch_.data(), rx_batch_.size());
    rx_batch_.clear();
}

void RadioMedium::deliver(Transmission& tx, RadioDevice& receiver) {
    const double signal_dbm = rx_power_dbm(tx, receiver);

    // Collect interferers overlapping this frame at this receiver. The
    // carrier-phase alignment between two unsynchronised transmitters rotates
    // with their frequency offset (paper §V-D: survival "depends on the phase
    // difference between the injected and legitimate signals"), with a
    // coherence time on the order of a byte — so the phase lottery is drawn
    // *per byte* below, which is what makes longer overlaps deadlier.
    // channel_active_ is the id-ordered list of this channel's held records:
    // interference sums (FP, order-sensitive) and fading draws happen in
    // start order.  Overlap is tested before any draw, and dead records
    // (see horizon_) are skipped, so a record held past its retirement
    // changes nothing.
    struct Interferer {
        const Transmission* tx;
        double power_mw;
    };
    InlineVec<Interferer, 8> interferers;
    for (Transmission* other : channel_active_[tx.channel]) {
        if (other == &tx) continue;
        if (other->start >= tx.end || other->end <= tx.start) continue;
        if (other->end < horizon_) continue;
        if (other->sender == &receiver) continue;  // own TX handled by half-duplex
        interferers.push_back(Interferer{other, dbm_to_mw(rx_power_dbm(*other, receiver))});
    }

    // A byte no interferer overlaps sees the noise floor alone at the
    // neutral phase: the same probability for every such byte, evaluated
    // at most once and, at a comfortable SIR, only if a draw falls below
    // CaptureModel::kLazyDrawBound.  Each byte still draws its own uniform,
    // which keeps the RNG stream of the per-byte model.
    NoiseOnlyDecision noise_only(capture_, signal_dbm - noise_dbm_);
    // Consecutive overlapped bytes with the same interferers sum to the
    // same interference power: its dBm is computed once per such run.
    double run_interference_mw = std::numeric_limits<double>::quiet_NaN();
    double run_interference_dbm = 0.0;

    const BytesView sent = tx.frame.bytes;
    Bytes copy;  // from the pool at the first corrupted byte
    bool corrupted = false;
    int corrupted_bytes = 0;
    int sync_bit_errors = 0;
    // The byte loop draws from a local copy of rng_, written back after it.
    // Nothing else can see the copy, so the xoshiro state stays in
    // registers.  Drawn from the member, it went back to memory on every
    // byte: the loop's out-of-line calls (the capture probability, the pool)
    // could read it through `this`, and a byte store into `copy` may alias it.
    Rng rng = rng_;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        bool corrupt_byte;
        bool overlapped = false;
        double interference_mw = noise_mw_;
        double phase = 0.5;  // neutral when only noise is present
        if (!interferers.empty()) {
            const TimePoint byte_start = tx.start + tx.frame.preamble_time +
                                         static_cast<Duration>(i) * tx.frame.byte_time;
            const TimePoint byte_end = byte_start + tx.frame.byte_time;
            for (const auto& intf : interferers) {
                if (intf.tx->start < byte_end && intf.tx->end > byte_start) {
                    interference_mw += intf.power_mw;
                    phase = rng.next_double();  // per-byte carrier-phase lottery
                    overlapped = true;
                }
            }
        }
        if (overlapped) {
            if (interference_mw != run_interference_mw) {
                run_interference_mw = interference_mw;
                run_interference_dbm = mw_to_dbm(interference_mw);
            }
            const double sir_db = signal_dbm - run_interference_dbm;
            corrupt_byte = rng.next_double() < capture_.byte_corruption_prob(sir_db, phase);
        } else {
            corrupt_byte = noise_only.corrupts(rng.next_u64());
        }
        if (corrupt_byte) {
            if (!corrupted) copy = pool_.acquire_copy(sent);
            // Flip a random bit: the CRC then fails naturally downstream.
            copy[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
            corrupted = true;
            ++corrupted_bytes;
            if (i < tx.frame.sync_bytes) ++sync_bit_errors;
        }
    }
    rng_ = rng;

    receiver.listen_state_.locked_tx = 0;  // receiver returns to idle listening

    const bool lost_sync = sync_bit_errors > params_.max_sync_bit_errors;
    if (bus_.active()) {
        obs::RxDecision decision;
        decision.time = tx.end;
        decision.tx_id = tx.id;
        decision.channel = tx.channel;
        decision.receiver = receiver.name();
        decision.verdict = lost_sync     ? obs::RxVerdict::kLostSync
                           : corrupted   ? obs::RxVerdict::kDeliveredCorrupted
                                         : obs::RxVerdict::kDelivered;
        decision.rssi_dbm = signal_dbm;
        decision.noise_dbm = params_.noise_floor_dbm;
        decision.corrupted_bytes = corrupted_bytes;
        decision.sync_bit_errors = sync_bit_errors;
        // Buffered, not emitted: runs of lost-sync verdicts (the common case
        // in a crowded spectrum) fan out in one batched call per sink.  The
        // batch is flushed before any device handler runs, so every sink
        // still sees decisions in exactly the unbatched order.
        rx_batch_.emplace_back(decision);
    }
    if (lost_sync) {
        // The correlator never matched: nothing is delivered, exactly like a
        // real radio that misses the access address.
        BLE_LOG_TRACE("medium: ", receiver.name(), " lost sync on tx ", tx.id);
        if (corrupted) pool_.release(std::move(copy));
        return;
    }
    if (corrupted) {
        // A tolerated near-miss correlation outputs the *matched* sync word.
        std::copy_n(sent.begin(), std::min(tx.frame.sync_bytes, sent.size()), copy.begin());
    }

    RxFrame rx;
    // Clean: a view of the transmitted frame, which stays put until the
    // record retires — never during a delivery.
    rx.bytes = corrupted ? BytesView(copy) : sent;
    rx.start = tx.start;
    rx.end = tx.end;
    rx.channel = tx.channel;
    rx.rssi_dbm = signal_dbm;
    rx.corrupted_by_medium = corrupted;
    rx.transmission_id = tx.id;
    flush_rx_batch();  // device code runs next: drain buffered verdicts first
    receiver.on_rx(rx);
    if (corrupted) pool_.release(std::move(copy));
}

void RadioMedium::retire(TimePoint horizon) noexcept {
    // Keep records around briefly so frames that overlapped them can still
    // account for their interference, then reclaim record, per-channel slot
    // and payload buffer together — oldest first, stopping at the first
    // record still inside the horizon (see horizon_ for those behind it).
    horizon_ = horizon;
    while (front_id_ < next_tx_id_) {
        std::unique_ptr<Transmission>& slot = ring_[front_id_ & (ring_.size() - 1)];
        Transmission& tx = *slot;
        if (tx.end >= horizon) break;
        // The oldest held record is the first of its channel's list.
        channel_active_[tx.channel].erase_value(&tx);
        pool_.release(std::move(tx.frame.bytes));
        tx.next_spare = std::move(spare_tx_);
        spare_tx_ = std::move(slot);
        ++front_id_;
    }
}

void RadioMedium::finish_transmission(std::uint64_t tx_id) {
    Transmission* held = find(tx_id);
    if (held == nullptr) return;
    Transmission& tx = *held;

    RadioDevice* sender = tx.sender;

    // Deliver to every receiver locked on this frame. Snapshot first: on_rx
    // handlers may retune radios or start transmissions. Walk in attach
    // order: delivery order decides the rng_ draw order, so heap layout must
    // never leak into it.  A locked receiver is by invariant still a member
    // of this channel's interest list (locks are cleared on any
    // retune/stop), so walking that list finds every one.
    InlineVec<RadioDevice*, 8> locked;
    for (RadioDevice* device : listeners_[tx.channel]) {
        if (device->listen_state_.locked_tx == tx_id) locked.push_back(device);
    }
    for (RadioDevice* receiver : locked) deliver(tx, *receiver);
    flush_rx_batch();  // trailing lost-sync verdicts with no on_rx after them

    retire(scheduler_.now() - kRetention);
    // NOTE: `tx` may be recycled from here on.

    if (sender != nullptr) {
        sender->transmitting_ = false;
        sender->on_tx_complete();
    }
}

}  // namespace ble::sim
