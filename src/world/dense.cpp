#include "world/dense.hpp"

#include <cmath>
#include <utility>

#include "link/adv_pdu.hpp"
#include "phy/access_address.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"

namespace injectable::world {

using namespace ble;

namespace {

constexpr sim::Channel kAdvChannels[3] = {37, 38, 39};

/// Uniform position in a disc of `radius` metres around the origin (where
/// the victim triangle sits).  sqrt(u) makes the density uniform per area.
sim::Position draw_position(Rng& rng, double radius) {
    const double r = radius * std::sqrt(rng.next_double());
    const double theta = rng.uniform(0.0, 6.283185307179586);
    return sim::Position{r * std::cos(theta), r * std::sin(theta)};
}

/// A small LL data PDU (opaque to the crowd: nobody parses it) with seeded
/// payload bytes, framed with the connection's AA and CRC init so victim
/// radios that catch it fail the AA filter, exactly like real neighbours.
sim::AirFrame crowd_data_frame(Rng& rng, std::uint32_t access_address,
                               std::uint32_t crc_init, std::size_t payload_len) {
    Bytes pdu;
    pdu.reserve(2 + payload_len);
    pdu.push_back(0x01);  // LLID = continuation, no MD/SN/NESN games
    pdu.push_back(static_cast<std::uint8_t>(payload_len));
    for (std::size_t i = 0; i < payload_len; ++i) {
        pdu.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    return phy::make_air_frame(access_address, pdu, crc_init);
}

/// A copy of the prebuilt `frame` for one transmission by `radio`, its bytes
/// drawn from the medium's frame pool (which reclaims them when it retires).
sim::AirFrame pooled_copy(sim::RadioDevice& radio, const sim::AirFrame& frame) {
    sim::AirFrame copy;
    copy.bytes = radio.frame_buffer();
    copy.bytes.assign(frame.bytes.begin(), frame.bytes.end());
    copy.preamble_time = frame.preamble_time;
    copy.byte_time = frame.byte_time;
    copy.sync_bytes = frame.sync_bytes;
    return copy;
}

}  // namespace

DenseEnvironment DenseEnvironment::scaled(double factor) const {
    DenseEnvironment out = *this;
    out.advertisers = static_cast<int>(advertisers * factor);
    out.scanners = static_cast<int>(scanners * factor);
    out.connections = static_cast<int>(connections * factor);
    return out;
}

// --- CrowdAdvertiser ---

CrowdAdvertiser::CrowdAdvertiser(sim::Scheduler& scheduler, sim::RadioMedium& medium,
                                 Rng rng, sim::RadioDeviceConfig config,
                                 Duration adv_interval)
    : RadioDevice(scheduler, medium, rng, std::move(config)),
      adv_interval_(adv_interval) {
    link::AdvDataPdu adv;
    adv.type = link::AdvPduType::kAdvNonconnInd;
    adv.advertiser = link::DeviceAddress::random_static(this->rng());
    adv.data = link::make_adv_name(name());
    frame_ = phy::make_air_frame(phy::kAdvertisingAccessAddress, adv.to_adv_pdu().serialize(),
                                 phy::kAdvertisingCrcInit);
    // Seeded phase: the crowd's advertising events spread over the interval
    // instead of thundering in lockstep at t=0.
    timer_ = schedule_local(
        static_cast<Duration>(this->rng().next_below(static_cast<std::uint64_t>(adv_interval_))),
        [this] { advertise(); });
}

void CrowdAdvertiser::advertise() {
    (void)transmit(kAdvChannels[channel_index_], pooled_copy(*this, frame_));
    channel_index_ = (channel_index_ + 1) % 3;
    // Fixed interval plus the spec's 0..10 ms pseudo-random advDelay.
    const Duration delay =
        adv_interval_ + static_cast<Duration>(rng().next_below(10'000'000));
    timer_ = schedule_local(delay, [this] { advertise(); });
}

// --- CrowdScanner ---

CrowdScanner::CrowdScanner(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                           sim::RadioDeviceConfig config, Duration scan_window)
    : RadioDevice(scheduler, medium, rng, std::move(config)), scan_window_(scan_window) {
    channel_index_ = static_cast<int>(this->rng().next_below(3));
    listen(kAdvChannels[channel_index_]);
    // Seeded phase, like the advertisers.
    timer_ = schedule_local(
        static_cast<Duration>(this->rng().next_below(static_cast<std::uint64_t>(scan_window_))),
        [this] { rotate(); });
}

void CrowdScanner::rotate() {
    channel_index_ = (channel_index_ + 1) % 3;
    listen(kAdvChannels[channel_index_]);
    timer_ = schedule_local(scan_window_, [this] { rotate(); });
}

// --- CrowdConnection ---

CrowdConnection::CrowdConnection(sim::Scheduler& scheduler, sim::RadioMedium& medium,
                                 Rng rng, const DenseEnvironment& env, int index,
                                 sim::Position master_pos, sim::Position slave_pos)
    : scheduler_(scheduler), selector_(5, link::ChannelMap{}) {
    const std::uint16_t span =
        static_cast<std::uint16_t>(env.max_hop_interval - env.min_hop_interval);
    hop_interval_ = static_cast<std::uint16_t>(env.min_hop_interval +
                                               rng.next_below(span + 1u));
    const auto hop_increment = static_cast<std::uint8_t>(5 + rng.next_below(12));
    selector_ = link::Csa1(hop_increment, link::ChannelMap{});
    access_address_ = phy::random_access_address(rng);
    crc_init_ = static_cast<std::uint32_t>(rng.next_below(1u << 24));
    master_frame_ = crowd_data_frame(rng, access_address_, crc_init_, 8);
    slave_frame_ = crowd_data_frame(rng, access_address_, crc_init_, 0);

    sim::RadioDeviceConfig m_cfg;
    m_cfg.name = "crowd-master-" + std::to_string(index);
    m_cfg.position = master_pos;
    master_ = std::make_unique<Node>(scheduler, medium, rng.fork(), std::move(m_cfg));

    sim::RadioDeviceConfig s_cfg;
    s_cfg.name = "crowd-slave-" + std::to_string(index);
    s_cfg.position = slave_pos;
    slave_ = std::make_unique<Node>(scheduler, medium, rng.fork(), std::move(s_cfg));

    // Seeded anchor phase: coexisting connections are mutually unaligned.
    const auto interval = static_cast<std::uint64_t>(connection_interval(hop_interval_));
    timer_ = scheduler_.schedule_after(static_cast<Duration>(rng.next_below(interval)),
                                       [this] { connection_event(); });
}

void CrowdConnection::connection_event() {
    const sim::Channel channel = selector_.channel_for_event(event_counter_++);
    // The slave opens its window, the master anchors, and the slave answers
    // T_IFS after the master's frame ends — scheduled, not rx-triggered, so
    // the cadence survives collisions (crowd links need no supervision).
    slave_->listen(channel);
    if (!master_->transmitting()) {
        (void)master_->transmit(channel, pooled_copy(*master_, master_frame_));
    }
    reply_timer_ = scheduler_.schedule_after(
        master_frame_.duration() + kTifs, [this, channel] {
            if (!slave_->transmitting()) {
                (void)slave_->transmit(channel, pooled_copy(*slave_, slave_frame_));
            }
        });
    timer_ = scheduler_.schedule_after(connection_interval(hop_interval_),
                                       [this] { connection_event(); });
}

// --- build_crowd ---

std::unique_ptr<Crowd> build_crowd(sim::Scheduler& scheduler, sim::RadioMedium& medium,
                                   Rng crowd_rng, const DenseEnvironment& env) {
    auto crowd = std::make_unique<Crowd>();
    Rng rng = crowd_rng;

    crowd->advertisers.reserve(static_cast<std::size_t>(env.advertisers));
    for (int i = 0; i < env.advertisers; ++i) {
        sim::RadioDeviceConfig cfg;
        cfg.name = "crowd-adv-" + std::to_string(i);
        cfg.position = draw_position(rng, env.area_radius_m);
        crowd->advertisers.push_back(std::make_unique<CrowdAdvertiser>(
            scheduler, medium, rng.fork(), std::move(cfg), env.adv_interval));
    }

    crowd->scanners.reserve(static_cast<std::size_t>(env.scanners));
    for (int i = 0; i < env.scanners; ++i) {
        sim::RadioDeviceConfig cfg;
        cfg.name = "crowd-scan-" + std::to_string(i);
        cfg.position = draw_position(rng, env.area_radius_m);
        crowd->scanners.push_back(std::make_unique<CrowdScanner>(
            scheduler, medium, rng.fork(), std::move(cfg)));
    }

    crowd->connections.reserve(static_cast<std::size_t>(env.connections));
    for (int i = 0; i < env.connections; ++i) {
        const sim::Position master_pos = draw_position(rng, env.area_radius_m);
        // The slave sits within ~2 m of its master, like a wearable or
        // peripheral next to the phone driving it.
        const sim::Position offset = draw_position(rng, 2.0);
        const sim::Position slave_pos{master_pos.x + offset.x, master_pos.y + offset.y};
        crowd->connections.push_back(std::make_unique<CrowdConnection>(
            scheduler, medium, rng.fork(), env, i, master_pos, slave_pos));
    }
    return crowd;
}

}  // namespace injectable::world
