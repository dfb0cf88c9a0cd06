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
#include <limits>
#include <memory>
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
    /// The received bytes, valid only during the on_rx call: a view of the
    /// transmitted AirFrame::bytes when no byte was corrupted, else of a
    /// pooled copy carrying the flipped bits.  Copy them to keep them.
    BytesView bytes;
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
/// medium-side map) so the medium walks receivers in attach order, never by
/// address: receiver walk order — which decides RNG draw order — can never
/// depend on heap layout.
struct ListenState {
    Channel channel = 0;
    bool active = false;
    /// Transmission the receiver is locked on (0 = idle).
    std::uint64_t locked_tx = 0;
    /// Monotonic attach sequence number, assigned once by RadioMedium::attach.
    /// The per-channel interest lists sort by it, which makes their walk
    /// order identical to the historical all-device attach-order walk — the
    /// property that keeps RNG draw order (and therefore traces) bit-stable.
    /// It also keys the medium's mean-path-loss cache.
    std::uint64_t attach_order = 0;
};

struct MediumParams {
    double noise_floor_dbm = -100.0;
    double sensitivity_dbm = -94.0;
    /// Bit errors tolerated by the sync-word correlator (real BLE receivers
    /// accept an access address with a couple of flipped bits and output the
    /// *matched* pattern). Beyond this, the frame is silently lost.
    int max_sync_bit_errors = 2;
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

    /// Transmission records the medium holds (all channels): frames in
    /// flight and those ended less than the retention horizon ago, plus
    /// any older ones still queued behind a held record.
    [[nodiscard]] std::size_t active_transmissions() const noexcept {
        return static_cast<std::size_t>(next_tx_id_ - front_id_);
    }

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
    /// corrupted deliveries copy into them, and retired frames and copies
    /// return to it.
    [[nodiscard]] BufferPool& frame_pool() noexcept { return pool_; }
    [[nodiscard]] const BufferPool& frame_pool() const noexcept { return pool_; }

    /// The per-world observation stream.  The medium emits obs::TxStart for
    /// every transmission and obs::RxDecision for every capture verdict; the
    /// other layers (link, ids, world) publish their events here too, so one
    /// subscriber sees the whole trial.
    [[nodiscard]] obs::EventBus& bus() noexcept { return bus_; }

private:
    friend struct MediumTestPeer;  // white-box access for tests/sim

    struct RxPower {
        const RadioDevice* receiver;
        double dbm;
    };

    /// One transmission, from transmit() until it retires; the heap record
    /// is then recycled through `spare_tx_` (see retire()).
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
        /// Freelist link while the record is spare.
        std::unique_ptr<Transmission> next_spare;
    };

    /// Mean path loss at the geometry it was computed for: a pure function
    /// of the two positions and the walls, so it is valid for whichever
    /// pair hashes here while those match.  An empty slot matches nothing.
    struct PairLoss {
        Position sender_pos;
        Position receiver_pos;
        std::size_t walls = std::numeric_limits<std::size_t>::max();
        double mean_db = 0.0;
    };

    double rx_power_dbm(Transmission& tx, const RadioDevice& receiver);
    double mean_loss_db(const RadioDevice& sender, const RadioDevice& receiver);
    [[nodiscard]] std::size_t pair_slot(const RadioDevice& sender,
                                        const RadioDevice& receiver) const noexcept;
    [[nodiscard]] Transmission* find(std::uint64_t tx_id) const noexcept;
    Transmission& hold(std::uint64_t tx_id);
    void retire(TimePoint horizon) noexcept;
    void finish_transmission(std::uint64_t tx_id);
    void deliver(Transmission& tx, RadioDevice& receiver);
    void insert_listener(RadioDevice& device, Channel channel);
    void remove_listener(RadioDevice& device, Channel channel) noexcept;
    void flush_rx_batch();

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
    /// Per-channel interest lists, sorted by ListenState::attach_order, so
    /// a walk visits the channel's listeners in attach order — the order
    /// that decides RNG draw order.
    /// Membership invariant: a device appears in listeners_[c] iff its
    /// listen_state_ is {active, channel == c}; locked_tx != 0 implies
    /// membership (locks are only granted to and cleared with listeners).
    std::array<ListenerList, kNumChannels> listeners_;
    /// The held records, ids [front_id_, next_tx_id_), record `id` at slot
    /// `id & (ring_.size() - 1)`: ids are consecutive, so a power-of-two
    /// ring larger than the held count never collides, and lookup by id is
    /// one probe.  Records retire from the front only (retire()).
    std::vector<std::unique_ptr<Transmission>> ring_;
    std::uint64_t front_id_ = 1;
    /// Retired records, reused by transmit(): once a world reaches its peak
    /// of held records, a frame costs no allocation.
    std::unique_ptr<Transmission> spare_tx_;
    /// The horizon of the last retire() pass.  A held record that ended
    /// before it is dead: retire() stopped at a live record ahead of it,
    /// and every walk skips it, exactly as if it had been reclaimed.
    TimePoint horizon_ = std::numeric_limits<TimePoint>::min();
    /// Per-channel view of the held records in id order (append in id
    /// order, retire from the front), so interference collection touches
    /// co-channel transmissions only.  Records never move.
    std::array<InlineVec<Transmission*, 4>, kNumChannels> channel_active_;
    /// Direct-mapped mean-path-loss cache: the pair with attach orders
    /// (s, r) uses slot (s mod n)·n + (r mod n), n = pair_side_.
    std::vector<PairLoss> pair_loss_;
    std::size_t pair_side_ = 0;
    /// Recycles retired AirFrame payloads and corrupted-delivery copies.
    BufferPool pool_;
    /// Capture verdicts awaiting batched fanout; always flushed before any
    /// device code (on_rx / on_tx_complete) runs, so the views inside the
    /// buffered events can never dangle and per-sink event order matches
    /// unbatched dispatch exactly.
    std::vector<obs::Event> rx_batch_;
};

}  // namespace ble::sim
