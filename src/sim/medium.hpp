// RadioMedium: the shared 2.4 GHz channel.
//
// Mechanics (mirrors how a real BLE receiver behaves, at byte granularity):
//  * A receiver that is idle-listening on a channel *locks onto* the first
//    transmission that starts while it listens and arrives above sensitivity.
//    It cannot re-sync mid-frame, so a transmission already in flight when the
//    receiver opens its window is missed entirely — this is exactly why
//    window widening exists, and why the attacker's earlier frame wins the
//    race even when the legitimate master transmits moments later.
//  * When the locked transmission ends, every byte that overlapped another
//    transmission (or sits near the noise floor) is corrupted with a
//    probability from CaptureModel.  A corrupted sync header (preamble /
//    access address region) suppresses delivery entirely; corruption later in
//    the frame is delivered as-is and caught by the link layer's CRC — the
//    paper's outcome (b).
//  * Devices are half-duplex: transmitting suspends listening.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/inline_vec.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/bus.hpp"
#include "sim/capture.hpp"
#include "sim/path_loss.hpp"
#include "sim/scheduler.hpp"

namespace ble::sim {

class RadioDevice;

/// BLE channel index, 0..36 data + 37..39 advertising.
using Channel = std::uint8_t;
constexpr Channel kNumChannels = 40;

/// A fully serialized over-the-air frame, PHY-agnostic from the medium's
/// point of view: opaque bytes plus explicit timing.
struct AirFrame {
    /// Access address + PDU + CRC (unwhitened; whitening is a PHY detail that
    /// is bijective per channel, so the medium carries logical bytes).
    Bytes bytes;
    /// Airtime of the preamble preceding bytes[0] (8 µs for LE 1M).
    Duration preamble_time = 8_us;
    /// Airtime of one byte (8 µs for LE 1M).
    Duration byte_time = 8_us;
    /// Corruption within the first `sync_bytes` of `bytes` (plus the
    /// preamble) prevents receiver sync: the frame is silently lost.
    std::size_t sync_bytes = 4;

    [[nodiscard]] Duration duration() const noexcept {
        return preamble_time + static_cast<Duration>(bytes.size()) * byte_time;
    }
};

/// What a locked receiver gets when the frame ends.
struct RxFrame {
    Bytes bytes;  ///< possibly corrupted copy of AirFrame::bytes
    TimePoint start = 0;
    TimePoint end = 0;
    Channel channel = 0;
    double rssi_dbm = -127.0;
    /// God-view flag: true if the medium corrupted at least one byte.  The
    /// protocol stack must NOT consult this (it re-checks CRC like real
    /// hardware); it exists for tests and for validating the paper's Eq. 7
    /// success heuristic against ground truth.
    bool corrupted_by_medium = false;
    /// God-view: id of the transmission this frame came from.
    std::uint64_t transmission_id = 0;
};

/// Per-device receiver state.  Lives inside RadioDevice (not in a
/// medium-side map) so the medium's only iteration surface is `devices_` in
/// attach order: receiver walk order — which decides RNG draw order — can
/// never depend on heap layout (the PR 3 determinism bug class).
struct ListenState {
    Channel channel = 0;
    bool active = false;
    /// Transmission the receiver is locked on (0 = idle).
    std::uint64_t locked_tx = 0;
    /// Monotonic attach sequence number, assigned once by RadioMedium::attach.
    /// The per-channel interest lists sort by it, which makes their walk
    /// order identical to the historical all-device attach-order walk — the
    /// property that keeps RNG draw order (and therefore traces) bit-stable.
    std::uint64_t attach_order = 0;
};

struct MediumParams {
    double noise_floor_dbm = -100.0;
    double sensitivity_dbm = -94.0;
    /// Bit errors tolerated by the sync-word correlator (real BLE receivers
    /// accept an access address with a couple of flipped bits and output the
    /// *matched* pattern). Beyond this, the frame is silently lost.
    int max_sync_bit_errors = 2;
    /// Disable the per-channel interest/transmission indexes and fall back to
    /// the pre-refactor all-device / all-transmission walks.  Bit-identical
    /// results by construction (the indexes are order-preserving caches of
    /// exactly those walks); exists as the honest A/B baseline for the
    /// BM_DenseWorld* speedup claim and the equivalence tests.
    bool legacy_full_scan = false;
};

class RadioMedium {
public:
    RadioMedium(Scheduler& scheduler, Rng rng, PathLossModel path_loss = PathLossModel{},
                CaptureModel capture = CaptureModel{}, MediumParams params = {});

    RadioMedium(const RadioMedium&) = delete;
    RadioMedium& operator=(const RadioMedium&) = delete;

    /// Called by RadioDevice's constructor/destructor.
    void attach(RadioDevice& device);
    void detach(RadioDevice& device) noexcept;

    /// Device API (normally called through RadioDevice helpers).
    void start_listening(RadioDevice& device, Channel channel);
    void stop_listening(RadioDevice& device) noexcept;
    [[nodiscard]] bool is_receiving(const RadioDevice& device) const noexcept;
    std::uint64_t transmit(RadioDevice& device, Channel channel, AirFrame frame);

    [[nodiscard]] PathLossModel& path_loss() noexcept { return path_loss_; }
    [[nodiscard]] const MediumParams& params() const noexcept { return params_; }
    [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }

    /// Number of transmissions currently in flight (all channels).
    [[nodiscard]] std::size_t active_transmissions() const noexcept { return active_.size(); }

    /// Per-channel interest list type: inline capacity covers the sparse
    /// common case (a handful of listeners / frames per channel), dense
    /// channels spill to the heap once and keep the block.
    using ListenerList = InlineVec<RadioDevice*, 4>;

    /// Devices currently listening on `channel`, in attach order (the
    /// delivery walk order; exposed for tests).
    [[nodiscard]] const ListenerList& listeners_on(Channel channel) const noexcept {
        return listeners_[channel];
    }

    /// The frame-buffer freelist: transmitters build frames in its buffers,
    /// deliveries copy into them, and retired frames and copies return to it.
    [[nodiscard]] BufferPool& frame_pool() noexcept { return pool_; }
    [[nodiscard]] const BufferPool& frame_pool() const noexcept { return pool_; }

    /// The per-world observation stream.  The medium emits obs::TxStart for
    /// every transmission and obs::RxDecision for every capture verdict; the
    /// other layers (link, ids, world) publish their events here too, so one
    /// subscriber sees the whole trial.
    [[nodiscard]] obs::EventBus& bus() noexcept { return bus_; }

    /// Legacy tx-observer shim, now a bus subscriber under the hood: observe
    /// every transmission start (channel, start, frame, sender).
    using TxObserver =
        std::function<void(const RadioDevice&, Channel, TimePoint, const AirFrame&)>;
    void add_tx_observer(TxObserver observer);

private:
    struct RxPower {
        const RadioDevice* receiver;
        double dbm;
    };

    /// Built in place in `active_` (the inline memo is not movable) and
    /// recycled with its map node (see spare_tx_).
    struct Transmission {
        std::uint64_t id = 0;
        RadioDevice* sender = nullptr;
        Channel channel = 0;
        TimePoint start = 0;
        TimePoint end = 0;
        AirFrame frame;
        /// Memoized received power per receiver (one fading draw per pair),
        /// searched linearly: a frame is heard by a handful of receivers, so
        /// the first four pairs live inline and a crowded channel spills once.
        InlineVec<RxPower, 4> rx_power_dbm;
    };

    double rx_power_dbm(Transmission& tx, const RadioDevice& receiver);
    void finish_transmission(std::uint64_t tx_id);
    void deliver(Transmission& tx, RadioDevice& receiver);
    void insert_listener(RadioDevice& device, Channel channel);
    void remove_listener(RadioDevice& device, Channel channel) noexcept;
    void flush_rx_batch();
    void collect_garbage();

    Scheduler& scheduler_;
    Rng rng_;
    PathLossModel path_loss_;
    CaptureModel capture_;
    MediumParams params_;
    /// The noise floor in mW, and back in dBm (the round trip, not the
    /// parameter, is what the corruption model has always used): constants
    /// of the medium, computed once instead of per delivery.
    double noise_mw_;
    double noise_dbm_;
    obs::EventBus bus_;

    std::uint64_t next_tx_id_ = 1;
    std::uint64_t next_attach_order_ = 1;
    /// Attach order: the historical iteration surface for receiver walks,
    /// still authoritative under legacy_full_scan and for detach bookkeeping.
    std::vector<RadioDevice*> devices_;
    /// Per-channel interest lists, sorted by ListenState::attach_order — an
    /// order-preserving index of `devices_` filtered to (active, channel).
    /// Membership invariant: a device appears in listeners_[c] iff its
    /// listen_state_ is {active, channel == c}; locked_tx != 0 implies
    /// membership (locks are only granted to and cleared with listeners).
    std::array<ListenerList, kNumChannels> listeners_;
    /// Ordered by transmission id (== start order) so interference sums —
    /// FP additions, order-sensitive — accumulate identically on every run
    /// and platform.  A handful of frames are in flight at once, so the
    /// O(log n) lookup is irrelevant.
    using ActiveMap = std::map<std::uint64_t, Transmission>;
    ActiveMap active_;
    /// Map nodes of retired transmissions, reused by transmit(): once a
    /// world reaches its peak of in-flight records, a frame costs no node
    /// allocation.  Bounded by that peak, so it lives and dies with the world.
    std::vector<ActiveMap::node_type> spare_tx_;
    /// Per-channel view of `active_` in the same id order (append-only in id
    /// order; erasure preserves relative order), so interference collection
    /// touches co-channel transmissions only.  Map node addresses are stable.
    std::array<InlineVec<Transmission*, 4>, kNumChannels> channel_active_;
    /// Recycles per-delivery payload copies and retired AirFrame payloads.
    BufferPool pool_;
    /// Capture verdicts awaiting batched fanout; always flushed before any
    /// device code (on_rx / on_tx_complete) runs, so the views inside the
    /// buffered events can never dangle and per-sink event order matches
    /// unbatched dispatch exactly.
    std::vector<obs::Event> rx_batch_;
};

}  // namespace ble::sim
