// Base class for everything with an antenna: masters, slaves, the attacker's
// dongle, IDS probes.
#pragma once

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/medium.hpp"
#include "sim/path_loss.hpp"
#include "sim/scheduler.hpp"
#include "sim/sleep_clock.hpp"

namespace ble::sim {

struct RadioDeviceConfig {
    std::string name = "device";
    Position position{};
    double tx_power_dbm = 0.0;
    SleepClockParams clock{};
};

class RadioDevice {
public:
    RadioDevice(Scheduler& scheduler, RadioMedium& medium, Rng rng, RadioDeviceConfig config);
    virtual ~RadioDevice();

    RadioDevice(const RadioDevice&) = delete;
    RadioDevice& operator=(const RadioDevice&) = delete;

    /// Frame fully received (possibly with corrupted bytes — check CRC).
    virtual void on_rx(const RxFrame& frame) = 0;
    /// Own transmission left the antenna.
    virtual void on_tx_complete() {}

    void listen(Channel channel) { medium_.start_listening(*this, channel); }
    void stop_listening() noexcept { medium_.stop_listening(*this); }
    /// Returns the medium's transmission id (useful to tests).
    std::uint64_t transmit(Channel channel, AirFrame frame);
    /// An empty buffer from the medium's frame pool to build a frame in;
    /// transmit() hands it back to the pool once the frame has retired.
    [[nodiscard]] Bytes frame_buffer() { return medium_.frame_pool().acquire(); }
    [[nodiscard]] bool transmitting() const noexcept { return transmitting_; }
    /// True while locked onto an in-flight frame (sync achieved, end pending).
    [[nodiscard]] bool receiving() const noexcept { return medium_.is_receiving(*this); }

    [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
    [[nodiscard]] Position position() const noexcept { return config_.position; }
    void set_position(Position p) noexcept { config_.position = p; }
    [[nodiscard]] double tx_power_dbm() const noexcept { return config_.tx_power_dbm; }

    [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
    [[nodiscard]] RadioMedium& medium() noexcept { return medium_; }
    [[nodiscard]] SleepClock& sleep_clock() noexcept { return sleep_clock_; }
    [[nodiscard]] Rng& rng() noexcept { return rng_; }
    [[nodiscard]] TimePoint now() const noexcept { return scheduler_.now(); }

    /// Schedule on this device's *local* clock: the real delay is `local_delay`
    /// distorted by the sleep clock's current drift. This is how every LL
    /// timer (connection events, transmit windows) is armed.
    EventId schedule_local(Duration local_delay, EventCallback fn);

private:
    friend class RadioMedium;

    Scheduler& scheduler_;
    RadioMedium& medium_;
    Rng rng_;
    RadioDeviceConfig config_;
    SleepClock sleep_clock_;
    bool transmitting_ = false;
    /// Receiver state, managed by RadioMedium.  Kept on the device so the
    /// medium never needs a pointer-keyed map (see ListenState in medium.hpp).
    ListenState listen_state_;
};

}  // namespace ble::sim
